package main

import "fixture/lib"

func main() {
	lib.ExtOnly()
	lib.Run(lib.Options{ExtSet: true})
}
