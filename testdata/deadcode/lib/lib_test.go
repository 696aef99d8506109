package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	OnlyTests()
	if Run(Options{Verbose: true}) != 0 || MaxShapes == 0 {
		t.Fatal("verbose runs return 0")
	}
}
