// Command fixture is the dead-code checker's self-test module: each
// declaration in lib says whether the checker must report it.
package main

import (
	"encoding/json"
	"fmt"

	"fixture/lib"
)

func main() {
	r, _ := json.Marshal(lib.Report{Count: 1})
	fmt.Println(lib.Total([]lib.Shape{lib.Square{N: 2}, lib.Circle{R: 1}}), lib.Celsius(3), lib.Used(),
		lib.Feed(&lib.Tally{}, 2), lib.HeaderSize(), lib.Pairs([]int{1, 2, 1}), lib.Run(lib.Options{Size: 4}), lib.Same(1, 2, 1, 2), string(r))
}
