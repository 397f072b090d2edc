package cluster

// The consistent-hash ring. Each node projects VNodes virtual points
// onto a 64-bit circle via seeded FNV-1a; a key belongs to the node
// owning the first point at or clockwise of the key's hash. Placement
// is a pure function of (seed, node set, key): every client computes
// the same ring with no coordination, and because one node's points
// are independent of every other node's, adding or removing a node
// moves only the keys that land on (or leave) that node's arcs —
// expected VNodes·(1/N) of the keyspace, nothing else.

import (
	"errors"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-point count per node when Config.VNodes
// is zero: enough to keep per-node load within a few percent of even
// at small fleets without making ring rebuilds noticeable.
const DefaultVNodes = 64

// ringPoint is one virtual point: a position on the hash circle and
// the node that owns the arc ending there.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Build one with NewRing;
// derive changed fleets with WithNode/WithoutNode. Methods are safe
// for concurrent use.
//
// Every ring carries an epoch: a monotonically increasing version of
// the membership within one derivation lineage. NewRing starts at 1;
// each WithNode/WithoutNode derivation increments it. The epoch is the
// fencing token of live resharding (see Rebalance): clients stamp it
// on stream frames and servers refuse frames from older epochs, so a
// mixed-placement window is detected instead of double-counted.
type Ring struct {
	seed   int64
	vnodes int
	epoch  uint64
	nodes  []string // sorted, unique
	points []ringPoint
}

// NewRing builds a ring over the given node addresses at epoch 1.
// Duplicates are rejected (a duplicated address would silently double
// that node's share). vnodes <= 0 means DefaultVNodes.
func NewRing(seed int64, vnodes int, nodes []string) (*Ring, error) {
	return NewRingAt(seed, vnodes, nodes, 1)
}

// NewRingAt builds a ring at an explicit epoch. Use it to reconstruct
// a ring whose lineage advanced in another process (an operator who
// knows the fleet is at epoch N builds the matching ring directly).
// Epoch 0 is reserved as "unversioned" on the wire and rejected here.
func NewRingAt(seed int64, vnodes int, nodes []string, epoch uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	if epoch == 0 {
		return nil, errors.New("cluster: ring epoch 0 is reserved for unversioned frames")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, errors.New("cluster: empty node address")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
	}
	r := &Ring{seed: seed, vnodes: vnodes, epoch: epoch, nodes: sorted}
	r.rebuild()
	return r, nil
}

// fmix64 is the 64-bit avalanche finalizer (murmur3's): every input
// bit flips about half the output bits. FNV-1a alone fails here — two
// virtual-point indices differing in a low bit yield hashes differing
// by a small multiple of the FNV prime, so one node's points clump in
// a narrow arc and the ring degenerates to one effective point per
// node. Finalizing spreads them uniformly.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// rebuild recomputes the sorted point array from the node set.
func (r *Ring) rebuild() {
	r.points = make([]ringPoint, 0, len(r.nodes)*r.vnodes)
	for _, n := range r.nodes {
		base := fnv1aString(seedBasis(r.seed), n)
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: fmix64(mixIndex(base, uint32(i))), node: n})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions across nodes resolve by name so every client
		// breaks the tie identically.
		return r.points[a].node < r.points[b].node
	})
}

// Nodes returns the member addresses, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Epoch returns the ring's membership version.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Seed returns the placement seed shared by every ring in a lineage.
func (r *Ring) Seed() int64 { return r.seed }

// VNodes returns the virtual-point count per node.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner maps a stream key to the node that owns it.
func (r *Ring) Owner(key string) string {
	return r.ownerOf(r.keyHash(key))
}

// keyHash is a key's position on the circle. It depends only on the
// seed, so every ring of one lineage places a key at the same point.
func (r *Ring) keyHash(key string) uint64 {
	return fmix64(fnv1aString(seedBasis(r.seed), key))
}

// ownerOf returns the node owning circle position h: the owner of the
// first point at or clockwise of h.
func (r *Ring) ownerOf(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the circle's start
	}
	return r.points[i].node
}

// WithNode derives the ring with one more member at epoch+1. The
// receiver is unchanged.
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewRingAt(r.seed, r.vnodes, append(r.Nodes(), node), r.epoch+1)
}

// WithoutNode derives the ring with one member removed at epoch+1.
// The receiver is unchanged.
func (r *Ring) WithoutNode(node string) (*Ring, error) {
	kept := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			kept = append(kept, n)
		}
	}
	if len(kept) == len(r.nodes) {
		return nil, fmt.Errorf("cluster: node %q not in ring", node)
	}
	return NewRingAt(r.seed, r.vnodes, kept, r.epoch+1)
}

// FNV-1a, seeded by folding the seed's bytes in before the payload.
// Chosen over maphash for one property maphash explicitly refuses to
// give: stability across processes and runs, which is what makes the
// ring coordinator-free.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// seedBasis folds the ring seed into the FNV basis.
func seedBasis(seed int64) uint64 {
	h := uint64(fnvOffset)
	u := uint64(seed)
	for i := 0; i < 8; i++ {
		h ^= (u >> (8 * i)) & 0xFF
		h *= fnvPrime
	}
	return h
}

// fnv1aString folds s into h.
func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mixIndex folds a virtual-point index into a node's base hash.
func mixIndex(h uint64, i uint32) uint64 {
	for b := 0; b < 4; b++ {
		h ^= uint64((i >> (8 * b)) & 0xFF)
		h *= fnvPrime
	}
	return h
}
