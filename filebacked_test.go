package mobiceal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mobiceal"
	"mobiceal/internal/storage"
)

// serialFile is a FileDevice with its submission ring forced off: it hands
// the device one request at a time, so the stack above it moves scattered
// extents one preadv/pwritev at a time — what a kernel without io_uring
// gives.
type serialFile struct{ *storage.FileDevice }

func (d serialFile) Do(reqs []storage.Req) error {
	return storage.Each(reqs, d.FileDevice.Do)
}

// ringOn and ringOff are the two ways the file-backed suites hand an image
// to the stack.
func ringOn(d *storage.FileDevice) storage.Device  { return d }
func ringOff(d *storage.FileDevice) storage.Device { return serialFile{d} }

// TestFileBackedSystem runs the full stack — Setup, public and hidden
// volumes, concurrent async writers, FlushAll, close, reopen — over a real
// file-backed image, and checks both
// durability across the reopen and the file-syscall telemetry surface.
func TestFileBackedSystem(t *testing.T) {
	runFileBackedSystem(t, mobiceal.FileOptions{}, ringOn)
}

// TestFileBackedSystemRingOff and its direct twin run the same lifecycle
// with the ring forced off: the serial fallback must stay a complete,
// working configuration.
func TestFileBackedSystemRingOff(t *testing.T) {
	runFileBackedSystem(t, mobiceal.FileOptions{}, ringOff)
}

func TestFileBackedSystemDirectRingOff(t *testing.T) {
	runFileBackedSystem(t, mobiceal.FileOptions{Direct: true}, ringOff)
}

// TestFileBackedSystemDirect is the same lifecycle under O_DIRECT,
// skipping where the filesystem refuses it (tmpfs TMPDIR, non-Linux).
func TestFileBackedSystemDirect(t *testing.T) {
	runFileBackedSystem(t, mobiceal.FileOptions{Direct: true}, ringOn)
}

func runFileBackedSystem(t *testing.T, fopts mobiceal.FileOptions, wrap func(*storage.FileDevice) storage.Device) {
	const (
		blockSize = 4096
		numBlocks = 4096
		writers   = 3
		opsEach   = 24
	)
	path := filepath.Join(t.TempDir(), "disk.img")
	dev, err := mobiceal.CreateImageWith(path, blockSize, numBlocks, fopts)
	if errors.Is(err, mobiceal.ErrDirectUnsupported) {
		t.Skipf("direct I/O unavailable here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}

	sys, err := mobiceal.Setup(wrap(dev), testConfig(99), "decoy", []string{"hush"})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hush")
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent async writers on both volumes: disjoint per-writer block
	// regions near the volume tails, submitted without waiting so the
	// windowed queues actually fill.
	vols := []*mobiceal.Volume{pub, hid}
	payload := func(vol, writer, op int) []byte {
		buf := make([]byte, blockSize)
		for i := range buf {
			buf[i] = byte(vol*91 + writer*37 + op*13 + i)
		}
		return buf
	}
	base := pub.Device().NumBlocks() - uint64(writers*opsEach) - 8
	var wg sync.WaitGroup
	errc := make(chan error, writers*len(vols))
	for vi, vol := range vols {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(vi, w int, vol *mobiceal.Volume) {
				defer wg.Done()
				var futs []*mobiceal.Future
				for op := 0; op < opsEach; op++ {
					off := base + uint64(w*opsEach+op)
					futs = append(futs, vol.SubmitWrite(off, payload(vi, w, op)))
				}
				errc <- mobiceal.WaitAll(futs...)
			}(vi, w, vol)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("async writer: %v", err)
		}
	}
	if err := sys.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// The telemetry surface must report the file backend, live.
	tel := sys.Telemetry()
	if tel.File == nil {
		t.Fatal("file-backed system reports no file syscall telemetry")
	}
	if tel.File.PwritevCalls == 0 {
		t.Fatal("workload issued no vectored writes")
	}
	if tel.File.Direct != fopts.Direct {
		t.Fatalf("telemetry direct = %v, want %v", tel.File.Direct, fopts.Direct)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: everything written before FlushAll must be there,
	// in both volumes.
	dev2, err := mobiceal.OpenImageWith(path, blockSize, fopts)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	sys2, err := mobiceal.Open(wrap(dev2), testConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	pub2, err := sys2.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	hid2, err := sys2.OpenHidden("hush")
	if err != nil {
		t.Fatal(err)
	}
	for vi, vol := range []*mobiceal.Volume{pub2, hid2} {
		for w := 0; w < writers; w++ {
			for op := 0; op < opsEach; op++ {
				off := base + uint64(w*opsEach+op)
				got := make([]byte, blockSize)
				if err := vol.SubmitRead(off, got).Wait(); err != nil {
					t.Fatalf("vol %d reopen read %d: %v", vi, off, err)
				}
				if !bytes.Equal(got, payload(vi, w, op)) {
					t.Fatalf("vol %d block %d lost or corrupted across reopen", vi, off)
				}
			}
		}
	}
}

// TestFileBackedRingMatchesSerialImage runs one seeded workload — fresh
// and overwriting 32 KiB writes on the public and a hidden volume, reads,
// a discard, a GC pass, flushes — on two images: one served by the
// submission ring, one with the ring forced off. Batching changes how
// extents reach the file, never which bytes: the two images must be
// identical to the last block, and every read must agree.
func TestFileBackedRingMatchesSerialImage(t *testing.T) {
	for _, fopts := range []mobiceal.FileOptions{{}, {Direct: true}} {
		name := "buffered"
		if fopts.Direct {
			name = "direct"
		}
		t.Run(name, func(t *testing.T) {
			const (
				blockSize = 4096
				numBlocks = 4096
				chunk     = 8
			)
			type run struct {
				path string
				file *storage.FileDevice
				sys  *mobiceal.System
				vols []*mobiceal.Volume
			}
			start := func(name string, wrap func(*storage.FileDevice) storage.Device) *run {
				r := &run{path: filepath.Join(t.TempDir(), name)}
				var err error
				r.file, err = mobiceal.CreateImageWith(r.path, blockSize, numBlocks, fopts)
				if errors.Is(err, mobiceal.ErrDirectUnsupported) {
					t.Skipf("direct I/O unavailable here: %v", err)
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.sys, err = mobiceal.Setup(wrap(r.file), testConfig(31), "decoy", []string{"hush"}); err != nil {
					t.Fatal(err)
				}
				pub, err := r.sys.OpenPublic("decoy")
				if err != nil {
					t.Fatal(err)
				}
				hid, err := r.sys.OpenHidden("hush")
				if err != nil {
					t.Fatal(err)
				}
				r.vols = []*mobiceal.Volume{pub, hid}
				return r
			}
			runs := []*run{start("ring.img", ringOn), start("serial.img", ringOff)}

			// One op at a time, so both stacks see the same order.
			buf := mobiceal.AlignedBuf(chunk * blockSize)
			got := [2][]byte{mobiceal.AlignedBuf(chunk * blockSize), mobiceal.AlignedBuf(chunk * blockSize)}
			for op := 0; op < 96; op++ {
				vi, at := op%2, uint64(16+(op*5%24)*chunk) // revisits chunks: overwrites too
				for i := range buf {
					buf[i] = byte(op*7 + i)
				}
				for ri, r := range runs {
					if err := r.vols[vi].SubmitWrite(at, buf).Wait(); err != nil {
						t.Fatalf("op %d run %d: write: %v", op, ri, err)
					}
					if err := r.vols[vi].SubmitRead(at-4, got[ri]).Wait(); err != nil {
						t.Fatalf("op %d run %d: read: %v", op, ri, err)
					}
				}
				if !bytes.Equal(got[0], got[1]) {
					t.Fatalf("op %d: ring and serial stacks read different bytes", op)
				}
				if op%32 == 31 {
					for ri, r := range runs {
						if err := r.vols[0].SubmitDiscard(16, 4*chunk).Wait(); err != nil {
							t.Fatalf("run %d: discard: %v", ri, err)
						}
						if _, err := r.sys.GC([]int{r.vols[1].ID()}, nil); err != nil {
							t.Fatalf("run %d: GC: %v", ri, err)
						}
						if err := r.sys.FlushAll(); err != nil {
							t.Fatalf("run %d: flush: %v", ri, err)
						}
					}
				}
			}
			var images [2][]byte
			var sc [2]mobiceal.FileSyscalls
			for ri, r := range runs {
				if err := r.sys.FlushAll(); err != nil {
					t.Fatal(err)
				}
				sc[ri] = *r.sys.Telemetry().File
				if err := r.sys.Close(); err != nil {
					t.Fatal(err)
				}
				if err := r.file.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if images[ri], err = os.ReadFile(r.path); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(images[0], images[1]) {
				t.Fatal("ring and serial images differ")
			}
			if sc[1].BatchCalls != 0 || sc[1].Ring {
				t.Fatalf("ring forced off still batched: %+v", sc[1])
			}
			if sc[0].WriteSegs != sc[1].WriteSegs || sc[0].ReadSegs != sc[1].ReadSegs {
				t.Fatalf("the two stacks moved different segments:\n ring   %+v\n serial %+v", sc[0], sc[1])
			}
			if sc[0].Ring && sc[0].PwritevCalls >= sc[1].PwritevCalls {
				t.Fatalf("the ring saved no syscalls:\n ring   %+v\n serial %+v", sc[0], sc[1])
			}
		})
	}
}
