package matrix

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCOO(rng, 30, 18, 120).ToCSC()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("MatrixMarket round trip changed the matrix")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 2 2
1 1
3 2
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 2 || a.NNZ() != 2 {
		t.Fatalf("got %v", a)
	}
	if a.At(0, 0) != 1 || a.At(2, 1) != 1 {
		t.Error("pattern entries should have value 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a banner\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n1 1\n1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",            // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",            // count mismatch
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",                // short line
		"%%MatrixMarket matrix coordinate real general\n10 10 -1\n",                  // negative nnz
		"%%MatrixMarket matrix coordinate real general\n10 10 1\n4294967297 1 5.0\n", // row wraps Index
		"%%MatrixMarket matrix coordinate real general\n10 10 1\n1 4294967297 5.0\n", // column wraps Index
		"%%MatrixMarket matrix coordinate real general\n-3 10 0\n",                   // negative rows
		"%%MatrixMarket matrix coordinate real general\n",                            // no size line
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: err = %v, want ErrFormat", i, err)
		}
	}
}
