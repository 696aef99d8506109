package core

import (
	"errors"
	"testing"

	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

// footerDevice returns a device formatted with an 8-volume system and the
// footer region's first block index.
func footerDevice(t testing.TB) (*storage.MemDevice, uint64) {
	t.Helper()
	dev := storage.NewMemDevice(blockSize, 512)
	cfg := testConfig(11)
	cfg.NumVolumes = 8
	if _, err := Setup(dev, cfg, "decoy-pass", []string{"hidden-pass"}); err != nil {
		t.Fatal(err)
	}
	return dev, dev.NumBlocks() - xcrypto.FooterBlocks(blockSize)
}

// TestOpenRejectsFooterVolumeCount rewrites the footer's volume count of
// an 8-volume device. A count above 8 would send dummy writes to thins
// that do not exist; a count below 2 would turn dummy writes off and
// remove the deniability cover; any count other than 8 disagrees with the
// pool's thins 1..8. Open must refuse them all.
func TestOpenRejectsFooterVolumeCount(t *testing.T) {
	dev, _ := footerDevice(t)
	footer, err := xcrypto.ReadFooter(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{0, 1, 2, 7, 9, 20, 1 << 31} {
		footer.NumVolumes = n
		if err := xcrypto.WriteFooter(dev, footer); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dev, testConfig(12)); !errors.Is(err, xcrypto.ErrBadFooter) {
			t.Errorf("footer saying %d volumes: Open err = %v, want ErrBadFooter", n, err)
		}
	}
	footer.NumVolumes = 8
	if err := xcrypto.WriteFooter(dev, footer); err != nil {
		t.Fatal(err)
	}
	sys, err := Open(dev, testConfig(12))
	if err != nil {
		t.Fatalf("the true footer: %v", err)
	}
	if sys.NumVolumes() != 8 {
		t.Fatalf("NumVolumes = %d, want 8", sys.NumVolumes())
	}
}

// FuzzFooter writes arbitrary bytes over the start of a formatted device's
// footer region and opens it. Open must fail, or return a system whose
// volume count is its pool's thin count and whose pool passes
// CheckIntegrity. Open derives no key, so a forged KDF iteration count
// cannot stall it.
func FuzzFooter(f *testing.F) {
	dev, start := footerDevice(f)
	region, err := storage.ReadFull(dev, start, xcrypto.FooterBlocks(blockSize))
	if err != nil {
		f.Fatal(err)
	}
	footer, err := xcrypto.ReadFooter(dev)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(footer.Marshal()[:256])
	for _, n := range []uint32{1, 20} {
		forged := *footer
		forged.NumVolumes = n
		f.Add(forged.Marshal()[:256])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), region...)
		copy(buf, data)
		if err := storage.WriteFull(dev, start, buf); err != nil {
			t.Fatal(err)
		}
		sys, err := Open(dev, testConfig(12))
		if err != nil {
			return
		}
		if n, thins := sys.NumVolumes(), len(sys.Pool().ThinIDs()); n != thins {
			t.Fatalf("opened with %d volumes over %d thins", n, thins)
		}
		if err := sys.Pool().CheckIntegrity(); err != nil {
			t.Fatalf("opened pool fails CheckIntegrity: %v", err)
		}
	})
}
