package bezier

// BernsteinToMonomial returns the (k+1)×(k+1) change-of-basis matrix M_k
// from the monomial basis to the degree-k Bernstein basis, generalising the
// cubic M of Eq. 15: f(s) = P·M_k·z with z = (1, s, ..., s^k)ᵀ.
//
// Row r holds the monomial coefficients of B_{k,r}(s):
// B_{k,r}(s) = C(k,r)·s^r·(1−s)^{k−r} = Σ_i C(k,r)·C(k−r,i)·(−1)^i·s^{r+i}.
func BernsteinToMonomial(k int) [][]float64 {
	m := make([][]float64, k+1)
	for r := 0; r <= k; r++ {
		row := make([]float64, k+1)
		ckr := Binomial(k, r)
		sign := 1.0
		for i := 0; i+r <= k; i++ {
			row[r+i] = ckr * Binomial(k-r, i) * sign
			sign = -sign
		}
		m[r] = row
	}
	return m
}
