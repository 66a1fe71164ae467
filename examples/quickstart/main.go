// Command quickstart shows the minimal SpKAdd workflow: generate a
// collection of sparse matrices, add them with a few different
// algorithms, and compare timings.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"spkadd"
)

func main() {
	const (
		k    = 32     // matrices to add
		rows = 100000 // rows per matrix
		cols = 256    // columns per matrix
		d    = 64     // average nonzeros per column
	)

	fmt.Printf("SpKAdd quickstart: adding k=%d ER matrices (%d x %d, d=%d)\n\n", k, rows, cols, d)
	as := make([]*spkadd.Matrix, k)
	totalIn := 0
	for i := range as {
		as[i] = spkadd.RandomER(rows, cols, d, uint64(i+1))
		totalIn += as[i].NNZ()
	}

	// The one-liner: Auto picks hash, SPA or sliding hash for you.
	sum, err := spkadd.Add(as, spkadd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cf := float64(totalIn) / float64(sum.NNZ())
	fmt.Printf("input nnz  = %d across %d matrices\n", totalIn, k)
	fmt.Printf("output nnz = %d (compression factor %.3f)\n\n", sum.NNZ(), cf)

	// Compare algorithms explicitly.
	algs := []spkadd.Algorithm{
		spkadd.TwoWayIncremental, spkadd.TwoWayTree,
		spkadd.Heap, spkadd.SPA, spkadd.Hash, spkadd.SlidingHash,
	}
	fmt.Printf("%-20s %12s %12s %12s\n", "algorithm", "symbolic", "numeric", "total")
	for _, alg := range algs {
		start := time.Now()
		got, pt, err := spkadd.AddTimed(as, spkadd.Options{Algorithm: alg})
		if err != nil {
			log.Fatalf("%v: %v", alg, err)
		}
		total := time.Since(start)
		if got.NNZ() != sum.NNZ() {
			log.Fatalf("%v produced nnz=%d, want %d", alg, got.NNZ(), sum.NNZ())
		}
		fmt.Printf("%-20v %12v %12v %12v\n", alg, pt.Symbolic.Round(time.Microsecond),
			pt.Numeric.Round(time.Microsecond), total.Round(time.Microsecond))
	}
	fmt.Println("\nAll algorithms agree on the result. The hash family is the")
	fmt.Println("paper's recommendation; 2-way incremental degrades as k grows.")
}
