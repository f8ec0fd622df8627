// Command spin-size prints the system inventory size tables (the analogues
// of the paper's Table 1 and Table 7): non-comment source lines and bytes
// for each kernel component and each extension, then the repository-wide
// total that CI ratchets (.github/workflows/ci.yml).
package main

import (
	"fmt"
	"os"

	"spin/internal/bench"
)

func main() {
	for _, id := range []string{"table1", "table7"} {
		e, _ := bench.Lookup(id)
		t, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spin-size: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
	}
	total, err := bench.NonTestLines()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spin-size: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("non-test Go lines (outside benchmark/): %d\n", total)
}
