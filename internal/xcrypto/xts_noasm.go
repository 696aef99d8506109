//go:build !amd64 || purego

package xcrypto

// xtsKernel is the assembly kernels' key schedules. This build has no
// kernel: the Go loop in XTS.process is the only path.
type xtsKernel struct{}

func newXTSKernel(_, _ []byte) *xtsKernel { return nil }

func (*xtsKernel) tweak(*[16]byte, uint64) {}

func (*xtsKernel) groups(*[16]byte, []byte, []byte, bool) int { return 0 }
