package lib

import "fmt"

// OnlyTests has no caller but lib_test.go: reported.
func OnlyTests() {}

// recurse calls nothing but itself: reported.
func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// Used is called from main: not reported, and a stale allowlist entry.
func Used() int { return 1 }

// Allowed has no caller, and an allowlist entry: not reported.
func Allowed() {}

// ExtOnly is called only from the ext module: listed as held alive by a
// caller directory.
func ExtOnly() {}

// Shape is called through in Total.
type Shape interface{ Area() int }

// Namer's method is never called.
type Namer interface{ Name() string }

// Square reaches Area only through Shape: not reported.
type Square struct{ N int }

// Area implements Shape.
func (s Square) Area() int { return s.N * s.N }

// Name implements Namer, whose Name nothing calls: reported.
func (s Square) Name() string { return "square" }

// Total sums the areas.
func Total(shapes []Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Celsius reaches String only through fmt.Stringer: not reported.
type Celsius float64

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }
