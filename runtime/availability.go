package runtime

// Availability is the online set of an environment's node slots, packed one
// bit per node (N/8 bytes: 62 KB at 500 000 nodes, cache resident where a
// []bool is not) with a count of offline nodes beside it, so "is anyone
// offline at all?" — the question a failure-free run answers the same way
// forty times per message — is one load.
//
// Environments own one in place of a flag array and expose it through
// Env.Availability; the Host flips and reads it directly, with no interface
// call per question. Out-of-range ids read offline and writes to them are
// no-ops, so a stray id from a scenario or trace degrades to a dropped
// message. The set is not synchronized: writes belong to the environment's
// dispatch context (coordinator events at barriers on a sharded
// environment), reads may come from any goroutine the environment orders
// after them.
type Availability struct {
	words   []uint64
	n       int
	offline int
}

// NewAvailability returns a set of n node slots, all online.
func NewAvailability(n int) Availability {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if tail := uint(n) % 64; tail != 0 {
		words[len(words)-1] = 1<<tail - 1
	}
	return Availability{words: words, n: n}
}

// N returns the number of node slots.
func (a *Availability) N() int { return a.n }

// Online reports whether node i is online; out-of-range ids read offline.
func (a *Availability) Online(i int) bool {
	return uint(i) < uint(a.n) && a.words[uint(i)/64]&(1<<(uint(i)%64)) != 0
}

// bit returns 1 if node i is online and 0 otherwise, a number to add rather
// than a bit to branch on: a scan over random neighbours mispredicts a branch
// on their online bits about every other neighbour. Out-of-range ids read 0.
func (a *Availability) bit(i int32) int {
	if uint(i) >= uint(a.n) {
		return 0
	}
	return int(a.words[uint(i)/64] >> (uint(i) % 64) & 1)
}

// Set marks node i online or offline. Setting a node to the state it is
// already in changes nothing; out-of-range ids are ignored.
func (a *Availability) Set(i int, online bool) {
	if uint(i) >= uint(a.n) {
		return
	}
	w, bit := &a.words[uint(i)/64], uint64(1)<<(uint(i)%64)
	switch was := *w&bit != 0; {
	case was == online:
	case online:
		*w |= bit
		a.offline--
	default:
		*w &^= bit
		a.offline++
	}
}

// AllOnline reports whether every node slot is online.
func (a *Availability) AllOnline() bool { return a.offline == 0 }
