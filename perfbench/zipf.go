package main

import (
	"math"
	"math/rand"
)

// zipfian draws ranks 0..n-1 with P(i) proportional to 1/(i+1)^theta, by
// the constant-time method of Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases" (SIGMOD 1994), as YCSB does.
type zipfian struct {
	n                   int
	theta, alpha, zetan float64
	eta                 float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	return min(int(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha)), z.n-1)
}
