package main

import (
	"fmt"
	"math/rand"
)

// The workload inputs. Everything the server will see — which key each
// cycle takes, when each open-loop arrival is due — is generated here
// from the seed before the run starts; the server receives only the ops.

// streamRand returns the generator for one input stream of a seed, so
// sessions draw independent sequences that do not depend on how many
// other streams exist.
func streamRand(seed uint64, stream int) *rand.Rand {
	// splitmix64 step: adjacent (seed, stream) pairs give unrelated sources.
	z := seed + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// keyNames are the lock names of a workload, indexed by key.
func keyNames(workload string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s/%05d", workload, i)
	}
	return names
}

// keyRing is the key sequence one session cycles through: n draws over
// nkeys keys, uniform when zipfS is 0 and zipf(zipfS) otherwise.
func keyRing(seed uint64, stream, nkeys, n int, zipfS float64) []uint32 {
	r := streamRand(seed, stream)
	ring := make([]uint32, n)
	if nkeys == 1 {
		return ring
	}
	var z *rand.Zipf
	if zipfS > 0 {
		z = rand.NewZipf(r, zipfS, 1, uint64(nkeys-1))
	}
	for i := range ring {
		if z != nil {
			ring[i] = uint32(z.Uint64())
		} else {
			ring[i] = uint32(r.Intn(nkeys))
		}
	}
	return ring
}

// arrival is one open-loop request: when it is due, in ns from the start
// of the run, and its key.
type arrival struct {
	due int64
	key uint32
}

// poissonArrivals generates the open-loop schedule: exponential gaps at
// rate per second until dur ns, keys as keyRing draws them.
func poissonArrivals(seed uint64, rate float64, durNs int64, nkeys int, zipfS float64) []arrival {
	gaps := streamRand(seed, -1)
	n := int(rate*float64(durNs)/1e9*1.05) + 64
	keys := keyRing(seed, 0, nkeys, n, zipfS)
	out := make([]arrival, 0, n)
	var t float64
	for i := 0; i < n; i++ {
		t += gaps.ExpFloat64() / rate * 1e9
		if int64(t) >= durNs {
			break
		}
		out = append(out, arrival{due: int64(t), key: keys[i]})
	}
	return out
}
