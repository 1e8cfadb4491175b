// Command benchmark is the fixture's separate benchmark module.
package main

import (
	"fmt"

	deadlib "example.com/dead/internal/lib"
)

func main() {
	m := deadlib.NewMeter()
	fmt.Println(deadlib.UsedByBench(), m.Read(), deadlib.NewTally().Count)
}
