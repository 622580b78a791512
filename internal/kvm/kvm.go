// Package kvm is the §5.3 "porting to new platforms" extension point made
// concrete: Nephele's cloning design carried to a KVM-flavoured platform.
// The paper's porting guide says KVM "already supports page sharing
// between parent and child domains, but it needs hypervisor interface
// extensions (for both clone operations and IDC) and I/O cloning support
// (a central daemon like xencloned for coordination and backend drivers
// modifications)". Accordingly, this package provides:
//
//   - a Host with KSM-style page sharing (the existing substrate, reused
//     from internal/mem: COW sharing through reference-counted frames);
//   - the KVM_CLONE ioctl — the interface extension mirroring CLONEOP,
//     gated by a per-VM clone capability;
//   - eventfd-style clone notifications consumed by kvmcloned, the
//     central coordination daemon;
//   - virtio-net device cloning (the backend modification): the clone's
//     virtqueues are copied and its tap interface is attached to the same
//     bridge/bond, keeping MAC+IP identity like the Xen implementation.
//
// The package deliberately parallels internal/hv + internal/cloned at a
// smaller scale: the point is that the design (two stages, a single new
// interface, device-specific clone policies) survives the platform swap.
package kvm

import (
	"errors"
	"fmt"
	"sync"

	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/ring"
	"nephele/internal/vclock"
)

// VMID identifies a virtual machine on the host.
type VMID uint32

// Errors.
var (
	ErrNoVM           = errors.New("kvm: no such vm")
	ErrCloneCapUnset  = errors.New("kvm: KVM_CAP_CLONE not enabled for vm")
	ErrCloneLimit     = errors.New("kvm: clone limit exceeded")
	ErrDaemonNotReady = errors.New("kvm: kvmcloned not attached")
)

// Memslot maps a guest-physical range onto host memory, KVM-style.
type Memslot struct {
	Slot    int
	GPABase uint64 // guest-physical base address
	Pages   int
}

// VirtioNet is the paravirtual NIC of the KVM port: a TX/RX virtqueue
// pair plus a host tap endpoint carrying the guest's MAC and IP.
type VirtioNet struct {
	mu  sync.Mutex
	MAC netsim.MAC
	IP  netsim.IP

	tx, rx *ring.Ring
	egress func(netsim.Packet)
}

// newVirtioNet creates a connected device.
func newVirtioNet(mac netsim.MAC, ip netsim.IP) *VirtioNet {
	return &VirtioNet{
		MAC: mac, IP: ip,
		tx: ring.New(256, 8),
		rx: ring.New(256, 64),
	}
}

// HWAddr implements netsim.Endpoint.
func (v *VirtioNet) HWAddr() netsim.MAC { return v.MAC }

// Deliver implements netsim.Endpoint (host -> guest).
func (v *VirtioNet) Deliver(p netsim.Packet) {
	v.mu.Lock()
	rx := v.rx
	v.mu.Unlock()
	payload := append([]byte(nil), p.Payload...)
	_ = rx.Push(ring.Entry{Payload: payload, Meta: uint64(p.SrcPort)<<16 | uint64(p.DstPort)})
}

// Recv pops one delivered payload.
func (v *VirtioNet) Recv() ([]byte, bool) {
	e, err := v.rx.Pop()
	if err != nil {
		return nil, false
	}
	return e.Payload, true
}

// Send transmits from the guest through the virtqueue to the host switch.
func (v *VirtioNet) Send(p netsim.Packet) error {
	if err := v.tx.Push(ring.Entry{Payload: p.Payload}); err != nil {
		return err
	}
	e, err := v.tx.Pop()
	if err != nil {
		return err
	}
	p.Payload = e.Payload
	p.SrcMAC = v.MAC
	v.mu.Lock()
	egress := v.egress
	v.mu.Unlock()
	if egress != nil {
		egress(p)
	}
	return nil
}

// clone copies the device for a child: virtqueues are copied (in-flight
// descriptors are tied to guest state, like the Xen netfront rings) and
// the identity is preserved.
func (v *VirtioNet) clone(meter *vclock.Meter) *VirtioNet {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := &VirtioNet{MAC: v.MAC, IP: v.IP, tx: v.tx.Clone(), rx: v.rx.Clone()}
	if meter != nil {
		meter.Charge(meter.Costs().CloneDeviceState, 1)
		meter.Charge(meter.Costs().PageCopy, c.tx.Pages()+c.rx.Pages())
	}
	return c
}

// VM is one QEMU process' worth of state.
type VM struct {
	mu sync.Mutex

	ID       VMID
	Name     string
	space    *mem.Space
	memslots []Memslot
	net      *VirtioNet

	cloneCap  bool
	maxClones int
	made      int

	parent   VMID
	isClone  bool
	children []VMID
}

// Space exposes the VM's memory for guests and tests.
func (vm *VM) Space() *mem.Space { return vm.space }

// Net exposes the virtio NIC.
func (vm *VM) Net() *VirtioNet { return vm.net }

// Memslots lists the VM's memory regions.
func (vm *VM) Memslots() []Memslot {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]Memslot, len(vm.memslots))
	copy(out, vm.memslots)
	return out
}

// Children lists direct clones.
func (vm *VM) Children() []VMID {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]VMID, len(vm.children))
	copy(out, vm.children)
	return out
}

// IsClone reports whether the VM was created by KVM_CLONE.
func (vm *VM) IsClone() (VMID, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.parent, vm.isClone
}

// CloneNotification is the eventfd payload kvmcloned consumes.
type CloneNotification struct {
	Parent, Child VMID
}

// Host is the KVM machine: memory, VMs, the notification eventfd and the
// attached daemon.
type Host struct {
	mu      sync.Mutex
	mem     *mem.Memory
	vms     map[VMID]*VM
	nextID  VMID
	eventfd chan CloneNotification
	daemon  *Cloned
	bridge  *netsim.Bridge
}

// NewHost creates a KVM host with the given RAM.
func NewHost(ramBytes uint64) *Host {
	return &Host{
		mem:     mem.New(ramBytes),
		vms:     make(map[VMID]*VM),
		nextID:  1,
		eventfd: make(chan CloneNotification, 128),
		bridge:  netsim.NewBridge("virbr0"),
	}
}

// Bridge exposes the host switch.
func (h *Host) Bridge() *netsim.Bridge { return h.bridge }

// FreeBytes reports unallocated host memory.
func (h *Host) FreeBytes() uint64 {
	return uint64(h.mem.FreeFrames()) * mem.PageSize
}

// CreateVM launches a QEMU process with one memslot of pages.
func (h *Host) CreateVM(name string, pages int, ip netsim.IP, meter *vclock.Meter) (*VM, error) {
	h.mu.Lock()
	id := h.nextID
	h.nextID++
	h.mu.Unlock()

	space, err := mem.NewSpace(h.mem, mem.DomID(uint32(id)), pages, meter)
	if err != nil {
		return nil, err
	}
	if meter != nil {
		meter.Charge(meter.Costs().DomainCreate, 1)
		meter.Charge(meter.Costs().BackendCreate, 1) // QEMU + vhost setup
	}
	vm := &VM{
		ID:       id,
		Name:     name,
		space:    space,
		memslots: []Memslot{{Slot: 0, GPABase: 0, Pages: pages}},
		net:      newVirtioNet(netsim.MACForDomain(uint32(id)), ip),
	}
	h.attachTap(vm, meter)
	h.mu.Lock()
	h.vms[id] = vm
	h.mu.Unlock()
	return vm, nil
}

// attachTap plugs the VM's tap into the host bridge.
func (h *Host) attachTap(vm *VM, meter *vclock.Meter) {
	h.bridge.Attach(vm.net)
	vm.net.mu.Lock()
	vm.net.egress = func(p netsim.Packet) { h.bridge.Forward(vm.net, p) }
	vm.net.mu.Unlock()
	if meter != nil {
		meter.Charge(meter.Costs().SwitchAttach, 1)
	}
}

// VM looks a VM up.
func (h *Host) VM(id VMID) (*VM, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoVM, id)
	}
	return vm, nil
}

// VMCount reports live VMs.
func (h *Host) VMCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vms)
}

// EnableCloneCap is the KVM_CAP_CLONE capability ioctl: cloning must be
// enabled per VM (the security gate mirroring the domctl of §5.1).
func (h *Host) EnableCloneCap(id VMID, maxClones int) error {
	vm, err := h.VM(id)
	if err != nil {
		return err
	}
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.cloneCap = true
	vm.maxClones = maxClones
	return nil
}

// KVMClone is the new ioctl: the first stage of cloning on KVM. Page
// sharing goes through the host's existing COW machinery (what KSM
// provides in production KVM); the VM's memslot layout is replicated for
// the child. The notification lands in the eventfd for kvmcloned.
func (h *Host) KVMClone(id VMID, meter *vclock.Meter) (*VM, error) {
	if meter == nil {
		meter = vclock.NewMeter(nil)
	}
	meter.Charge(meter.Costs().Hypercall, 1) // ioctl entry
	parent, err := h.VM(id)
	if err != nil {
		return nil, err
	}
	parent.mu.Lock()
	if !parent.cloneCap {
		parent.mu.Unlock()
		return nil, fmt.Errorf("%w: vm %d", ErrCloneCapUnset, id)
	}
	if parent.maxClones > 0 && parent.made >= parent.maxClones {
		parent.mu.Unlock()
		return nil, fmt.Errorf("%w: vm %d at %d", ErrCloneLimit, id, parent.made)
	}
	parent.made++
	slots := make([]Memslot, len(parent.memslots))
	copy(slots, parent.memslots)
	parent.mu.Unlock()

	h.mu.Lock()
	cid := h.nextID
	h.nextID++
	h.mu.Unlock()

	cspace, _, err := parent.space.CloneOp(obs.Ctx(meter), mem.DomID(uint32(cid)), true, mem.CloneEager)
	if err != nil {
		return nil, err
	}
	if meter != nil {
		meter.Charge(meter.Costs().DomainCreate, 1)
	}
	child := &VM{
		ID:       cid,
		Name:     fmt.Sprintf("%s-clone-%d", parent.Name, cid),
		space:    cspace,
		memslots: slots,
		parent:   id,
		isClone:  true,
	}
	parent.mu.Lock()
	parent.children = append(parent.children, cid)
	parent.mu.Unlock()
	h.mu.Lock()
	h.vms[cid] = child
	h.mu.Unlock()

	// Notify the coordination daemon.
	select {
	case h.eventfd <- CloneNotification{Parent: id, Child: cid}:
	default:
		return nil, errors.New("kvm: clone notification eventfd full")
	}
	return child, nil
}

// Cloned is kvmcloned, the central coordination daemon of the port: it
// consumes clone notifications and performs the second stage — virtio
// device cloning plus tap attachment.
type Cloned struct {
	host   *Host
	served int
}

// AttachDaemon starts kvmcloned on the host.
func (h *Host) AttachDaemon() *Cloned {
	d := &Cloned{host: h}
	h.mu.Lock()
	h.daemon = d
	h.mu.Unlock()
	return d
}

// ServeAll drains pending notifications, cloning each child's devices.
func (d *Cloned) ServeAll(meter *vclock.Meter) (int, error) {
	if meter == nil {
		meter = vclock.NewMeter(nil)
	}
	n := 0
	for {
		select {
		case note := <-d.host.eventfd:
			if err := d.serveOne(note, meter); err != nil {
				return n, err
			}
			n++
		default:
			return n, nil
		}
	}
}

func (d *Cloned) serveOne(note CloneNotification, meter *vclock.Meter) error {
	meter.Charge(meter.Costs().XenclonedWake, 1)
	parent, err := d.host.VM(note.Parent)
	if err != nil {
		return err
	}
	child, err := d.host.VM(note.Child)
	if err != nil {
		return err
	}
	// Virtio-net clone: copied virtqueues, identical MAC+IP, same
	// bridge.
	child.mu.Lock()
	child.net = parent.net.clone(meter)
	child.mu.Unlock()
	d.host.attachTap(child, meter)
	d.served++
	return nil
}

// Served reports completed second stages.
func (d *Cloned) Served() int { return d.served }

// Clone is the full two-stage convenience used by tests and comparisons:
// ioctl + daemon service, like core.Platform.CloneOp on the Xen side.
func (h *Host) Clone(id VMID, meter *vclock.Meter) (*VM, error) {
	h.mu.Lock()
	daemon := h.daemon
	h.mu.Unlock()
	if daemon == nil {
		return nil, ErrDaemonNotReady
	}
	child, err := h.KVMClone(id, meter)
	if err != nil {
		return nil, err
	}
	if _, err := daemon.ServeAll(meter); err != nil {
		return nil, err
	}
	return child, nil
}

// DestroyVM tears a VM down.
func (h *Host) DestroyVM(id VMID) error {
	vm, err := h.VM(id)
	if err != nil {
		return err
	}
	if vm.net != nil {
		h.bridge.Detach(vm.net)
	}
	if err := vm.space.Release(); err != nil {
		return err
	}
	h.mu.Lock()
	delete(h.vms, id)
	h.mu.Unlock()
	return nil
}
