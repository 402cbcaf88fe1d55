package front

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over backend indices.  Each backend owns
// `replicas` virtual points; a key is served by the backend owning the first
// point clockwise of the key's hash, and retries walk further clockwise over
// the remaining *distinct* backends.  Placement depends only on the backend
// names, so every pcfront instance (and a restarted one) routes a given
// instance fingerprint to the same backend — which is what makes the
// backend-local response caches and built models effective across a
// fleet of fronts.
type ring struct {
	hashes   []uint64
	backends []int // backends[i] owns point hashes[i]
	n        int   // number of distinct backends
}

// newRing places replicas points per backend, named by the backend's name.
func newRing(names []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &ring{n: len(names)}
	type point struct {
		h uint64
		b int
	}
	points := make([]point, 0, len(names)*replicas)
	for b, name := range names {
		for v := 0; v < replicas; v++ {
			points = append(points, point{pointHash(name + "#" + strconv.Itoa(v)), b})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		return points[i].b < points[j].b
	})
	r.hashes = make([]uint64, len(points))
	r.backends = make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.h
		r.backends[i] = p.b
	}
	return r
}

// order returns the backend indices in ring-walk order for key: the owner
// first, then each further distinct backend as the walk continues clockwise.
// Every backend appears exactly once.
func (r *ring) order(key uint64) []int {
	out := make([]int, 0, r.n)
	if r.n == 0 {
		return out
	}
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
	seen := make([]bool, r.n)
	for i := 0; i < len(r.hashes) && len(out) < r.n; i++ {
		b := r.backends[(start+i)%len(r.hashes)]
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// hashString is FNV-1a, the same family the service uses for shard
// selection; any stable 64-bit hash works here.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// pointHash places a virtual point: FNV-1a of its name through the
// splitmix64 finalizer.  Backend names on one host differ only in a few
// port digits, and FNV-1a alone leaves their points clustered — loopback
// port triples gave one backend up to 2.5x the mean key share.  The
// finalizer's avalanche spreads them evenly.
func pointHash(s string) uint64 {
	z := hashString(s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
