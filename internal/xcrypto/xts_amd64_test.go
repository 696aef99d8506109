//go:build amd64 && !purego

package xcrypto

import (
	"bytes"
	"testing"

	"mobiceal/internal/prng"
)

// kernelPaths returns x once per kernel path this host can run, each forced
// through the unexported kernel fields: the VAES kernel when NewXTS
// selected it, and the AES-NI kernel alone. Without AES-NI it returns x,
// which then is the Go loop.
func kernelPaths(x *XTS) []xtsPath {
	if x.kern == nil {
		return []xtsPath{{"go loop", x}}
	}
	var paths []xtsPath
	if x.kern.wide {
		paths = append(paths, xtsPath{"vaes", x})
	}
	k := *x.kern
	k.wide = false
	narrow := *x
	narrow.kern = &k
	return append(paths, xtsPath{"aes-ni", &narrow})
}

// TestXTSPathSelected logs which path NewXTS picked on this host, so that a
// green run (go test -v) says whether the VAES kernel was exercised.
func TestXTSPathSelected(t *testing.T) {
	x, err := NewXTS(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("XTS path on this CPU: %s (features %+v)", kernelPaths(x)[0].name, readCPU())
}

// TestXTSWideNeedsZMMState pins the selection rule: every instruction set
// the 16-block kernel uses, and XCR0 saying the OS saves the opmask and
// ZMM state. A CPU that reports VAES under an OS that does not enable ZMM
// state must not select the kernel.
func TestXTSWideNeedsZMMState(t *testing.T) {
	all := cpuFeatures{aes: true, osxsave: true, xcr0: 0xe7,
		avx512f: true, avx512bw: true, vaes: true, vpclmulqdq: true}
	if !all.wide() {
		t.Fatalf("%+v: not wide", all)
	}
	for name, f := range map[string]func(*cpuFeatures){
		"no ZMM state":         func(f *cpuFeatures) { f.xcr0 = 0x07 },
		"no upper ZMM":         func(f *cpuFeatures) { f.xcr0 = 0x67 },
		"no opmask state":      func(f *cpuFeatures) { f.xcr0 = 0xc7 },
		"no OSXSAVE":           func(f *cpuFeatures) { f.osxsave, f.xcr0 = false, 0 },
		"no AES-NI":            func(f *cpuFeatures) { f.aes = false },
		"no AVX512F":           func(f *cpuFeatures) { f.avx512f = false },
		"no AVX512BW":          func(f *cpuFeatures) { f.avx512bw = false },
		"no VAES":              func(f *cpuFeatures) { f.vaes = false },
		"no VPCLMULQDQ":        func(f *cpuFeatures) { f.vpclmulqdq = false },
		"VAES, SSE state only": func(f *cpuFeatures) { f.xcr0 = 0x03 },
	} {
		g := all
		f(&g)
		if g.wide() {
			t.Errorf("%s (%+v): selects the 16-block kernel", name, g)
		}
	}
}

// TestXTSProcessAllocatesNothing: on a kernel host a sector costs no heap
// allocation; the tweak is encrypted with the kernel's own schedule.
func TestXTSProcessAllocatesNothing(t *testing.T) {
	x, err := NewXTS(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if x.kern == nil {
		t.Skip("no AES-NI: the Go loop encrypts the tweak through cipher.Block")
	}
	buf := make([]byte, 4096+48)
	for _, p := range kernelPaths(x) {
		for _, n := range []int{16, 144, 4096, len(buf)} {
			allocs := testing.AllocsPerRun(100, func() {
				_ = p.x.EncryptSector(9, buf[:n], buf[:n]) // whole blocks: cannot fail
				_ = p.x.DecryptSector(9, buf[:n], buf[:n])
			})
			if allocs != 0 && !raceEnabled {
				t.Errorf("%s, %d bytes: %v allocations per sector pair, want 0", p.name, n, allocs)
			}
		}
	}
}

// TestXTSKernelTweakMatchesCipher: the kernel's tweak equals the standard
// library's encryption of the sector number, for both key sizes.
func TestXTSKernelTweakMatchesCipher(t *testing.T) {
	src := prng.NewSource(5)
	for _, keyLen := range []int{32, 64} {
		key := make([]byte, keyLen)
		_, _ = src.Read(key) // cannot fail
		x, err := NewXTS(key)
		if err != nil {
			t.Fatal(err)
		}
		if x.kern == nil {
			t.Skip("no AES-NI")
		}
		for _, sector := range []uint64{0, 1, 1 << 40, ^uint64(0), src.Uint64()} {
			var got [16]byte
			x.kern.tweak(&got, sector)
			if want := x.firstTweak(sector); !bytes.Equal(got[:], want[:]) {
				t.Errorf("key %d bytes, sector %#x: kernel tweak %x, want %x", keyLen, sector, got, want)
			}
		}
	}
}
