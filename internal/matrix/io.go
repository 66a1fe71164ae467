package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMatrixMarket writes a in MatrixMarket coordinate format
// (1-based indices), the interchange format of the SuiteSparse
// collection and of the protein-similarity matrices the paper uses.
func WriteMatrixMarket(w io.Writer, a *CSC) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for j := 0; j < a.Cols; j++ {
		rows, vals := a.ColRows(j), a.ColVals(j)
		for p := range rows {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", rows[p]+1, j+1, vals[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file into CSC.
// Only the "matrix coordinate real general" and "pattern" headers are
// supported; pattern entries get value 1.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pattern := false
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty MatrixMarket stream", ErrFormat)
	}
	header := strings.ToLower(sc.Text())
	if !strings.HasPrefix(header, "%%matrixmarket") {
		return nil, fmt.Errorf("%w: missing MatrixMarket banner", ErrFormat)
	}
	if !strings.Contains(header, "coordinate") {
		return nil, fmt.Errorf("%w: only coordinate format supported", ErrFormat)
	}
	if strings.Contains(header, "pattern") {
		pattern = true
	}
	if strings.Contains(header, "complex") || strings.Contains(header, "symmetric") {
		return nil, fmt.Errorf("%w: unsupported MatrixMarket qualifier in %q", ErrFormat, header)
	}
	// Skip comments, read size line.
	var rows, cols, nnz int
	sized := false
	for !sized && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("%w: bad size line %q: %v", ErrFormat, line, err)
		}
		sized = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sized {
		return nil, fmt.Errorf("%w: missing size line", ErrFormat)
	}
	// Dimensions past math.MaxInt32 would wrap the 32-bit Index.
	if rows < 0 || cols < 0 || nnz < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("%w: bad size line %d %d %d", ErrFormat, rows, cols, nnz)
	}
	// nnz is only a promise until the entries arrive: reserve at most
	// 64Ki entries (1 MiB) up front and let append grow past that.
	coo := &COO{Rows: rows, Cols: cols, Entries: make([]Triple, 0, min(nnz, 1<<16))}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 3
		if pattern {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("%w: short entry line %q", ErrFormat, line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: bad row index in %q: %v", ErrFormat, line, err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%w: bad column index in %q: %v", ErrFormat, line, err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d, %d) out of range %dx%d", ErrFormat, i, j, rows, cols)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad value in %q: %v", ErrFormat, line, err)
			}
		}
		coo.Append(Index(i-1), Index(j-1), v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if coo.NNZ() != nnz {
		return nil, fmt.Errorf("%w: header promised %d entries, got %d", ErrFormat, nnz, coo.NNZ())
	}
	return coo.ToCSC(), nil
}
