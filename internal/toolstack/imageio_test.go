package toolstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"nephele/internal/mem"
)

// encode serializes img, failing the test on error.
func encode(t testing.TB, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyImage is a 4-page image with one data run (a stored page and an
// absent slot), a zero run and an alias run.
func tinyImage() *Image {
	return &Image{
		Config: DomainConfig{Name: "tiny", MemoryMB: 4, VCPUs: 1},
		npages: 4,
		runs: []imageRun{
			{start: 0, count: 2, pages: [][]byte{[]byte("page zero"), nil}},
			{start: 2, count: 1},
			{start: 3, count: 1, alias: 0, isAlias: true},
		},
	}
}

// TestReadImageRefusesOldVersion: a stream in the previous format (its
// run hashes come from a different function) is refused by version, not
// reported as a content-hash mismatch.
func TestReadImageRefusesOldVersion(t *testing.T) {
	raw := encode(t, seededImage("v", 0x10))
	if !bytes.HasPrefix(raw, []byte("NEPHIMG2")) {
		t.Fatalf("stream starts %q, want magic NEPHIMG2", raw[:8])
	}
	old := append([]byte(nil), raw...)
	old[7] = '1'
	_, err := ReadImage(bytes.NewReader(old))
	if !errors.Is(err, ErrBadImage) {
		t.Fatalf("version 1 stream: err %v, want ErrBadImage", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version") || strings.Contains(msg, "hash") {
		t.Fatalf("version 1 stream: %q, want a version error", msg)
	}
}

// readAllocBound is the most ReadImage may allocate for an n-byte stream:
// a fixed allowance (the buffered reader, the image, one page read ahead
// of a truncation, the config decoder) plus a constant per input byte
// (a page slot per one-byte absent record, a run per 13-byte header, each
// grown by doubling).
func readAllocBound(n int) uint64 { return 64<<10 + 128*uint64(n) }

// readAllocated reports the bytes ReadImage allocates decoding raw.
func readAllocated(raw []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadImage(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestReadImageHostileLengths: lengths in a short stream claiming a huge
// config, a huge data run or a huge page are refused, and the decoder
// allocates in proportion to the bytes it was given, not the bytes
// claimed.
func TestReadImageHostileLengths(t *testing.T) {
	header := func(cfg string, npages uint64, nruns uint32) []byte {
		b := []byte("NEPHIMG2")
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cfg)))
		b = append(b, cfg...)
		b = binary.LittleEndian.AppendUint64(b, npages)
		return binary.LittleEndian.AppendUint32(b, nruns)
	}
	run := func(b []byte, kind byte, start uint64, count uint32) []byte {
		b = append(b, kind)
		b = binary.LittleEndian.AppendUint64(b, start)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	hugeCfg := binary.LittleEndian.AppendUint32([]byte("NEPHIMG2"), 1<<20)
	hugeRun := binary.LittleEndian.AppendUint64(run(header("{}", 1<<32, 1), runKindData, 0, 1<<32-1), 0)
	hugePage := binary.LittleEndian.AppendUint32(append(hugeRun, 1), mem.PageSize)
	wrapRun := run(header("{}", 8, 2), runKindZero, 1<<64-1, 1)
	overRun := run(header("{}", 8, 1), runKindZero, 4, 5)
	for name, raw := range map[string][]byte{
		"config": hugeCfg, "data run": hugeRun, "page": hugePage,
		"wrapping run": wrapRun, "run past the end": overRun,
	} {
		got, err := readAllocated(raw)
		if !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: err %v, want ErrBadImage", name, err)
		}
		if bound := readAllocBound(len(raw)); got > bound {
			t.Errorf("%s: %d-byte stream allocated %d bytes, bound %d", name, len(raw), got, bound)
		}
	}
}

// FuzzReadImage: no stream makes ReadImage panic or allocate out of
// proportion to its length, and any stream it accepts re-encodes to a
// stream that reads back to the same image.
func FuzzReadImage(f *testing.F) {
	f.Add(encode(f, tinyImage()))
	f.Add(encode(f, &Image{Config: DomainConfig{Name: "empty"}, npages: 1, runs: []imageRun{{start: 0, count: 1}}}))
	raw := encode(f, tinyImage())
	f.Add(raw[:len(raw)/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := readAllocated(raw)
		if bound := readAllocBound(len(raw)); got > bound {
			t.Fatalf("%d-byte stream allocated %d bytes, bound %d", len(raw), got, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("error %v is not ErrBadImage", err)
			}
			return
		}
		img, _ := ReadImage(bytes.NewReader(raw))
		enc := encode(t, img)
		img2, err := ReadImage(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded stream refused: %v", err)
		}
		if img2.CacheKey() != img.CacheKey() || !bytes.Equal(encode(t, img2), enc) {
			t.Fatal("re-encoded stream reads back to a different image")
		}
	})
}
