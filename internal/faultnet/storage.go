package faultnet

// Storage faults: the at-rest counterparts of the package's wire faults.
// Where the net.Conn wrappers corrupt data in transit, these corrupt a
// byte slice in place — the bit rot and torn writes a container picks up
// sitting on disk. They share the package's determinism model: every
// decision is drawn from a PRNG seeded by the caller, so a failing salvage
// soak replays exactly by rerunning with the seed it printed.

import "math/rand"

// BitRot flips `flips` bits of b in place at positions drawn from seed,
// and returns the flipped byte offsets (sorted by draw order, may repeat a
// byte). It models at-rest media corruption: a handful of independent
// single-bit errors scattered anywhere in the blob. No-op on empty b or
// flips <= 0.
func BitRot(b []byte, seed int64, flips int) []int {
	if len(b) == 0 || flips <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	offs := make([]int, 0, flips)
	for i := 0; i < flips; i++ {
		off := rng.Intn(len(b))
		b[off] ^= 1 << uint(rng.Intn(8))
		offs = append(offs, off)
	}
	return offs
}

// TornWrite returns a cut length for a blob of n bytes: a point drawn
// uniformly from [lo, n) at which a crashed writer stopped. Truncating the
// blob to the returned length models the torn tail a power loss leaves
// behind. lo keeps the cut out of a prefix that must survive (e.g. the
// metadata region); it is clamped to [0, n], and TornWrite returns n
// (no cut) when the range is empty.
func TornWrite(n int, seed int64, lo int) int {
	lo = max(lo, 0)
	if lo >= n {
		return n
	}
	rng := rand.New(rand.NewSource(seed))
	return lo + rng.Intn(n-lo)
}
