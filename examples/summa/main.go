// Command summa demonstrates SpKAdd's role inside distributed sparse
// matrix multiplication (the paper's primary motivation, Figs 5-6):
// a sparse SUMMA run on a simulated process grid, where every process
// must reduce the intermediate products of all stages with SpKAdd.
// Three variants are compared, as in Fig 6: heap SpKAdd over sorted
// intermediates, hash SpKAdd over sorted intermediates, and hash
// SpKAdd over unsorted intermediates (which also lets the local
// multiplies skip sorting).
//
//	go run ./examples/summa
package main

import (
	"fmt"
	"log"
	"time"

	"spkadd"
)

func main() {
	const (
		n       = 6000 // square matrix dimension
		cluster = 256  // protein-like cluster size (spans several grid blocks)
		deg     = 192  // average similarity degree
		grid    = 16   // 16x16 = 256 simulated processes, k=16 intermediates per process
	)
	fmt.Printf("simulated sparse SUMMA: %dx%d protein-similarity-like operands, %dx%d grid\n\n",
		n, n, grid, grid)

	// Protein-similarity-style operands (clustered + skewed), the
	// matrix family of the paper's Metaclust/Isolates experiments.
	a := proteinLike(n, cluster, deg, 1)
	b := proteinLike(n, cluster, deg, 2)
	fmt.Printf("A nnz=%d, B nnz=%d\n\n", a.NNZ(), b.NNZ())

	type variant struct {
		name string
		cfg  spkadd.SummaConfig
	}
	variants := []variant{
		{"Heap (sorted intermediates)", spkadd.SummaConfig{Grid: grid, SpKAdd: spkadd.Heap, SortIntermediates: true}},
		{"Sorted Hash", spkadd.SummaConfig{Grid: grid, SpKAdd: spkadd.Hash, SortIntermediates: true}},
		{"Unsorted Hash", spkadd.SummaConfig{Grid: grid, SpKAdd: spkadd.Hash, SortIntermediates: false}},
	}

	var refNNZ int
	fmt.Printf("%-30s %14s %14s %8s\n", "variant", "local multiply", "SpKAdd", "cf")
	for i, v := range variants {
		c, rep, err := spkadd.RunSumma(a, b, v.cfg)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		if i == 0 {
			refNNZ = c.NNZ()
		} else if c.NNZ() != refNNZ {
			log.Fatalf("%s: product nnz %d differs from reference %d", v.name, c.NNZ(), refNNZ)
		}
		fmt.Printf("%-30s %14v %14v %8.2f\n", v.name,
			rep.LocalMultiplySum.Round(time.Millisecond),
			rep.SpKAddSum.Round(time.Millisecond),
			rep.CompressionFactor)
	}
	fmt.Println("\nExpected shape (paper Fig 6): hash SpKAdd is much faster than heap,")
	fmt.Println("and unsorted intermediates shave the local multiply further.")
}

// proteinLike builds a clustered, skewed similarity matrix via the
// public API: dense-ish blocks along the diagonal plus hub-biased
// cross edges.
func proteinLike(n, cluster, deg int, seed uint64) *spkadd.Matrix {
	coo := spkadd.NewCOO(n, n)
	state := seed * 0x9E3779B97F4A7C15
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	in := deg * 3 / 4
	for v := 0; v < n; v++ {
		base := (v / cluster) * cluster
		span := cluster
		if base+span > n {
			span = n - base
		}
		for t := 0; t < in; t++ {
			coo.Append(spkadd.Index(v), spkadd.Index(base+int(next()%uint64(span))), 1)
		}
		for t := 0; t < deg-in; t++ {
			f := float64(next()>>11) / (1 << 53)
			u := int(f * f * float64(n))
			if u >= n {
				u = n - 1
			}
			coo.Append(spkadd.Index(v), spkadd.Index(u), 1)
		}
	}
	return coo.ToCSC()
}
