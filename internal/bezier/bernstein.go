// Package bezier implements Bézier curves in d-dimensional space in terms of
// Bernstein polynomials (Eq. 12–17 of the paper): evaluation by the
// numerically stable de Casteljau recurrence, the hodograph, subdivision,
// the compiled monomial form the projection kernels run on, and an exact
// strict-monotonicity certificate at every degree (Proposition 1).
package bezier

import "fmt"

// Binomial returns C(n, k). It panics for negative arguments or k > n.
// Only small n are ever needed (the RPC is cubic), so a multiplicative
// formula on float64 is exact far beyond the required range.
func Binomial(n, k int) float64 {
	if n < 0 || k < 0 || k > n {
		panic(fmt.Sprintf("bezier: Binomial(%d,%d) out of range", n, k))
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// Bernstein returns B_{n,r}(s) = C(n,r)(1−s)^{n−r} s^r (Eq. 13).
func Bernstein(n, r int, s float64) float64 {
	if r < 0 || r > n {
		panic(fmt.Sprintf("bezier: Bernstein(%d,%d) out of range", n, r))
	}
	return Binomial(n, r) * powInt(1-s, n-r) * powInt(s, r)
}

// powInt computes x^k for small non-negative integer k without math.Pow.
func powInt(x float64, k int) float64 {
	p := 1.0
	for i := 0; i < k; i++ {
		p *= x
	}
	return p
}
