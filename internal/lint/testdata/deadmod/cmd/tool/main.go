// Command tool uses the fixture library.
package main

import (
	"fmt"

	"example.com/dead/internal/lib"
)

func main() {
	fmt.Println(lib.UsedByCmd(), lib.Celsius(21), lib.NewMeter())
}
