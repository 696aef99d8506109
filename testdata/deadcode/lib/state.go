package lib

import (
	"sync/atomic"
	"unsafe"
)

// MaxShapes has no use but lib_test.go: reported.
const MaxShapes = 8

// Sink has one implementation, Tally: reported.
type Sink interface{ Put(n int) int }

// Feed puts n into s.
func Feed(s Sink, n int) int { return s.Put(n) }

// Tally's fields each say whether they must be reported.
type Tally struct {
	hits    int          // only assigned and incremented: reported
	drops   atomic.Int64 // only by an Add whose result is dropped: reported
	unused  string       // never touched: reported
	total   atomic.Int64 // by an Add whose result is used: not reported
	allowed int          // only assigned, and allowlisted: not reported
}

// Put implements Sink.
func (t *Tally) Put(n int) int {
	t.hits = 0
	t.hits++
	t.drops.Add(1)
	t.allowed = n
	return int(t.total.Add(int64(n)))
}

// Report is JSON-encoded by main: Count is read though nothing selects it.
type Report struct{ Count int }

// header is measured with unsafe.Sizeof: its fields are read.
type header struct{ magic, size uint32 }

// HeaderSize is the header's size in bytes.
func HeaderSize() int { return int(unsafe.Sizeof(header{})) }

// pair is a map key: its fields are read.
type pair struct{ a, b int }

// Pairs counts the distinct neighbouring pairs of xs.
func Pairs(xs []int) int {
	seen := map[pair]bool{}
	for i := 1; i < len(xs); i++ {
		seen[pair{xs[i-1], xs[i]}] = true
	}
	return len(seen)
}

// point is compared with ==: its fields are read.
type point struct{ x, y int }

// Same reports whether two coordinate pairs name one point.
func Same(ax, ay, bx, by int) bool { return point{ax, ay} == point{bx, by} }

// Options' fields each say whether they must be reported.
type Options struct {
	Size    int  // set in main: not reported
	Verbose bool // read, and set only in lib_test.go: reported
	ExtSet  bool // set only by the ext module: held alive by a caller directory
}

// Run reads every option.
func Run(o Options) int {
	if o.Verbose || o.ExtSet {
		return 0
	}
	return o.Size
}
