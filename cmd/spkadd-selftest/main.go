// Command spkadd-selftest cross-checks every SpKAdd algorithm against
// a dense reference on randomized inputs — the quick confidence check
// to run on a new platform before trusting benchmark numbers.
//
//	spkadd-selftest -rounds 50 -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spkadd-selftest: ")
	rounds := flag.Int("rounds", 25, "randomized rounds per input family")
	seed := flag.Int64("seed", 1, "base seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	families := []struct {
		name string
		gen  func(k int) []*matrix.CSC
	}{
		{"ER", func(k int) []*matrix.CSC {
			return generate.ERCollection(k, generate.Opts{
				Rows: rng.Intn(2000) + 10, Cols: rng.Intn(32) + 1,
				NNZPerCol: rng.Intn(64) + 1, Seed: rng.Uint64(),
			})
		}},
		{"RMAT", func(k int) []*matrix.CSC {
			return generate.RMATCollection(k, generate.Opts{
				Rows: rng.Intn(2000) + 10, Cols: rng.Intn(16) + 1,
				NNZPerCol: rng.Intn(32) + 1, Seed: rng.Uint64(),
			}, generate.Graph500)
		}},
		{"Clustered", func(k int) []*matrix.CSC {
			return generate.ClusteredCollection(k, generate.Opts{
				Rows: rng.Intn(2000) + 10, Cols: rng.Intn(16) + 1,
				NNZPerCol: rng.Intn(64) + 1, Seed: rng.Uint64(),
			}, float64(rng.Intn(16)+1))
		}},
	}

	failures := 0
	checks := 0
	for _, fam := range families {
		for round := 0; round < *rounds; round++ {
			k := rng.Intn(16) + 2
			as := fam.gen(k)
			want := matrix.ReferenceAdd(as)
			for _, alg := range core.Algorithms {
				opt := core.Options{
					Algorithm:    alg,
					SortedOutput: true,
					Threads:      rng.Intn(4) + 1,
				}
				if rng.Intn(3) == 0 {
					opt.MaxTableEntries = rng.Intn(64) + 1
				}
				got, err := core.Add(as, opt)
				checks++
				if err != nil {
					fmt.Printf("FAIL %s round %d %v: %v\n", fam.name, round, alg, err)
					failures++
					continue
				}
				if !got.EqualTol(want, 1e-9) {
					fmt.Printf("FAIL %s round %d %v: result differs from dense reference\n", fam.name, round, alg)
					failures++
				}
			}
		}
	}
	fmt.Printf("%d checks, %d failures\n", checks, failures)
	if failures > 0 {
		os.Exit(1)
	}
}
