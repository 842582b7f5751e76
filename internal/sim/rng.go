package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded through splitmix64). Every stochastic component of the
// simulator draws from its own RNG split off a root seed, so adding or
// removing one component never perturbs the random streams of the others.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent-looking streams; the same seed always gives the same stream.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to expand the seed into four non-degenerate words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives a new independent generator from r, keyed by label. Use it to
// hand each simulated component its own stream.
func (r *RNG) Split(label uint64) *RNG {
	seed := r.Uint64() ^ (label * 0xd1342543de82ef95)
	return NewRNG(seed)
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche over one word.
// Use it to derive component seeds from small structured inputs (node index,
// window number) where a bare XOR of multiplied counters can collide across
// input pairs and correlate the derived streams.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * r.LogComplement()
}

// LogComplement returns log(1-u) for the next uniform u: the unit value Exp
// scales, so Exp(mean) is exactly -mean*LogComplement() on the same stream.
// Drawing it apart from the mean lets a caller prefetch arrival gaps whose
// rate is only known at use.
func (r *RNG) LogComplement() float64 {
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return math.Log(1 - u)
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, via the Marsaglia polar method.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a log-normally distributed value whose underlying normal
// has parameters mu and sigma. The distribution's mean is exp(mu+sigma²/2);
// heavy right tails (large sigma) model the service-time skew of interactive
// cloud requests.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a bounded Pareto sample with the given minimum and shape
// alpha. Smaller alpha yields heavier tails.
func (r *RNG) Pareto(xmin, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xmin / math.Pow(1-u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
