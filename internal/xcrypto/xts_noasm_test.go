//go:build !amd64 || purego

package xcrypto

// kernelPaths returns x, which in this build is the Go loop.
func kernelPaths(x *XTS) []xtsPath { return []xtsPath{{"go loop", x}} }
