package core

import "spkadd/internal/matrix"

// mergeCount returns the number of distinct row indices in the union
// of two sorted, duplicate-free columns — the symbolic half of the
// paper's ColAdd (Algorithm 1, line 5).
func mergeCount(ar, br []matrix.Index) int {
	i, j, n := 0, 0, 0
	for i < len(ar) && j < len(br) {
		n++
		switch {
		case ar[i] < br[j]:
			i++
		case ar[i] > br[j]:
			j++
		default:
			i++
			j++
		}
	}
	return n + (len(ar) - i) + (len(br) - j)
}

// mergeInto merges two sorted columns into out slices of exactly the
// right length (as returned by mergeCount), summing values on equal
// row indices. It returns the number of entries written.
func mergeInto[T matrix.Arith](ar []matrix.Index, av []T, br []matrix.Index, bv []T, or []matrix.Index, ov []T) int {
	i, j, o := 0, 0, 0
	for i < len(ar) && j < len(br) {
		switch {
		case ar[i] < br[j]:
			or[o], ov[o] = ar[i], av[i]
			i++
		case ar[i] > br[j]:
			or[o], ov[o] = br[j], bv[j]
			j++
		default:
			or[o], ov[o] = ar[i], av[i]+bv[j]
			i++
			j++
		}
		o++
	}
	for i < len(ar) {
		or[o], ov[o] = ar[i], av[i]
		i++
		o++
	}
	for j < len(br) {
		or[o], ov[o] = br[j], bv[j]
		j++
		o++
	}
	return o
}
