// Cross-machine migration: the reason Nephele keeps the p2m map around
// (§5.2). Two simulated machines are built; a guest boots on the first,
// accumulates state, and is migrated (stop-and-copy: pause, save, rebuild
// the page table through the p2m on the target, destroy the source). The
// example also shows the §8 policy: clone-family members refuse to move,
// because separating them would break page sharing.
package main

import (
	"fmt"
	"log"

	"nephele/internal/core"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

func main() {
	machineA := core.NewPlatform(core.Options{})
	machineB := core.NewPlatform(core.Options{})

	rec, err := machineA.Boot(toolstack.DomainConfig{
		Name:      "worker",
		MemoryMB:  8,
		VCPUs:     1,
		MaxClones: 8,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 5}}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	dom, _ := machineA.HV.Domain(rec.ID)
	if err := dom.Space().Write(10, 0, []byte("accumulated state"), nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine A: %s | machine B: %s\n", machineA, machineB)

	meter := machineA.NewMeter()
	newRec, res, err := machineA.MigrateOp(obs.Ctx(meter), rec.ID, machineB, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated %q: %d KiB moved, downtime %v (virtual)\n",
		newRec.Config.Name, res.TransferBytes>>10, res.Downtime)

	newDom, _ := machineB.HV.Domain(newRec.ID)
	buf := make([]byte, 17)
	newDom.Space().Read(10, 0, buf)
	fmt.Printf("state on machine B: %q\n", buf)
	fmt.Printf("machine A: %s | machine B: %s\n", machineA, machineB)

	// The migrated guest clones normally on its new home...
	cresAll, err := machineB.CloneOp(obs.OpCtx{},
		core.CloneSpec{Caller: newRec.ID, Parent: newRec.ID, Count: 1})
	if err != nil {
		log.Fatal(err)
	}
	cres := cresAll[0]
	fmt.Printf("cloned on machine B: child domain %d in %v\n",
		cres.Children[0], cres.Total)

	// ...but family members are pinned to their machine (§8: moving
	// clones apart would break the page-sharing density win).
	if _, _, err := machineB.MigrateOp(obs.OpCtx{}, cres.Children[0], machineA, ""); err != nil {
		fmt.Printf("migrating the clone is refused, as designed: %v\n", err)
	}
}
