package cache

// classifier is the three-C model every organisation shares: the set of
// lines ever referenced (compulsory misses), a fully-associative LRU
// shadow of the cache's capacity (capacity versus conflict misses), and
// the stream that last evicted each line (self- versus
// cross-interference). A nil *classifier classifies nothing; that is
// Config.DisableClassify.
type classifier struct {
	seen      map[uint64]bool
	shadow    *shadow
	evictedBy map[uint64]int
}

func newClassifier(lines int) *classifier {
	return &classifier{
		seen:      make(map[uint64]bool),
		shadow:    newShadow(lines),
		evictedBy: make(map[uint64]int),
	}
}

// reference records a demand reference to line and returns the kind of
// miss it is if the cache misses: conflict when the shadow holds the
// line, else compulsory on the line's first reference and capacity
// after. A shadow hit implies an earlier reference, so the compulsory
// set is consulted only on shadow misses — steady-state replay skips one
// map operation per reference.
func (k *classifier) reference(line uint64) MissKind {
	if k == nil {
		return MissNone
	}
	if k.shadow.touch(line) {
		return MissConflict
	}
	if !k.seen[line] {
		k.seen[line] = true
		return MissCompulsory
	}
	return MissCapacity
}

// classify records a miss of line by stream, of the kind reference
// returned, in res and st. A conflict miss is attributed to self- or
// cross-interference when both the line's last evictor and stream are
// known.
func (k *classifier) classify(res *Result, st *Stats, kind MissKind, line uint64, stream int) {
	if k == nil {
		return
	}
	res.Kind = kind
	switch kind {
	case MissCompulsory:
		st.Compulsory++
	case MissCapacity:
		st.Capacity++
	case MissConflict:
		st.Conflict++
		if evictor, ok := k.evictedBy[line]; ok && stream != StreamNone && evictor != StreamNone {
			if evictor == stream {
				res.SelfInterference = true
				st.SelfInterference++
			} else {
				res.CrossInterference = true
				st.CrossInterference++
			}
		}
	}
}

// evicted records that stream displaced line.
func (k *classifier) evicted(line uint64, stream int) {
	if k != nil {
		k.evictedBy[line] = stream
	}
}

// reset forgets every reference and eviction.
func (k *classifier) reset() {
	if k == nil {
		return
	}
	k.seen = make(map[uint64]bool)
	k.shadow.reset()
	k.evictedBy = make(map[uint64]int)
}
