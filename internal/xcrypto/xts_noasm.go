//go:build !amd64 || purego

package xcrypto

// xtsKernel is the 8-block assembly kernel's key schedule. This build has
// no kernel: the Go loop in XTS.process is the only path.
type xtsKernel struct{}

func newXTSKernel([]byte) *xtsKernel { return nil }

func (*xtsKernel) groups(*[16]byte, []byte, []byte, bool) int { return 0 }
