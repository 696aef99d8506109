// Command fixture is the dead-code checker's self-test module: each
// declaration in lib says whether the checker must report it.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.Total([]lib.Shape{lib.Square{N: 2}}), lib.Celsius(3), lib.Used())
}
