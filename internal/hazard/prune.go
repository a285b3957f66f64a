package hazard

// Sweep pruning skips scenario executions whose outcome is already
// implied, without changing a single reported byte:
//
//   - Dominance: on a monotone engine (no UnlessFault transfers — see
//     epa.Engine.Monotone) with monotone conditions (no NotCond), fault
//     activation only ever grows the reachable error states, so a
//     superset of a scenario that violates requirement R also violates
//     R. The pruner indexes the minimal violating bitmasks per
//     requirement; a scenario whose mask has a recorded violating
//     subset for EVERY requirement is known to violate all of them and
//     its row is synthesized instead of simulated. Pruning only fires
//     when all requirements are covered — a superset of a
//     non-violating scenario may still violate (WhenFault can arm new
//     propagation), so partial knowledge never skips work.
//
//   - Symmetry orbits: components verified interchangeable by
//     epa.InterchangeableClasses (exact transposition automorphisms of
//     the compiled tables) yield EPA results that are equivariant under
//     member swaps. Classes are refined by mutation profile (same fault
//     set with the same likelihoods) and exclude every component named
//     in a requirement condition, so two scenarios in the same orbit
//     have identical violation vectors AND identical risk scores. The
//     first orbit member encountered executes; the rest replicate its
//     violated set. Orbit replication is sound on any engine — it does
//     not need monotonicity. The orbit key is the scenario's candidate
//     bitmask with each class's per-member fault bitfields sorted into
//     canonical member order (see orbitKey), so a lookup is a byte-
//     string map probe with no formatting.
//
// Synthesized rows are also persisted to the result cache as
// synthesized-result records (scenario mask + 'S' suffix, payload =
// requirement-set hash + violated bitmap) so a resumed or re-run sweep
// restores them as cache hits exactly like executed rows — checkpoint
// frontier and cache semantics are identical for pruned and executed
// ranks.

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/store"
)

// synthSuffix terminates a synthesized-result cache key. Scenario-mask
// keys are exactly maskLen bytes, synthesized keys maskLen+1, so the two
// record kinds cannot collide inside one namespace.
const synthSuffix = byte('S')

// pruner holds the in-memory pruning state of one sweep. All methods
// are safe for concurrent use by the sweep workers.
type pruner struct {
	reqs        []Requirement
	reqIdx      map[string]int
	allViolated []string // every requirement ID, sorted
	reqsHash    uint64

	// dominance is armed only when both the engine and every condition
	// are monotone.
	dominance bool

	classes []int // sizes only, for stats
	// slots maps each candidate index to its place in a symmetry class
	// (class < 0: unclassed). classIdx[c][m*width+f] is the candidate
	// index of fault slot f of member slot m of class c; every member of
	// a class carries the same fault profile, so width is per class.
	slots    []orbitSlot
	classIdx [][]int
	width    []int

	mu        sync.RWMutex
	violating [][]string // per requirement: minimal violating masks
	orbits    map[string][]string
}

// orbitSlot places one candidate inside its symmetry class.
type orbitSlot struct {
	class, member int32
	fault         uint8
}

// newPruner analyzes the engine and requirement set and builds the
// pruning state. The returned pruner may have dominance disabled (and
// possibly no symmetry classes) but is always safe to use.
func newPruner(eng *epa.Engine, muts []faults.Mutation, reqs []Requirement) *pruner {
	p := &pruner{
		reqs:      reqs,
		reqIdx:    make(map[string]int, len(reqs)),
		reqsHash:  hashReqs(reqs),
		dominance: eng.Monotone(),
		slots:     make([]orbitSlot, len(muts)),
		violating: make([][]string, len(reqs)),
		orbits:    map[string][]string{},
	}
	for i, r := range reqs {
		p.reqIdx[r.ID] = i
		p.allViolated = append(p.allViolated, r.ID)
		if !conditionMonotone(r.Condition) {
			p.dominance = false
		}
	}
	sort.Strings(p.allViolated)

	// Symmetry classes: protected components (any component a condition
	// can distinguish) never join a class, and engine-level classes are
	// refined by mutation profile so orbit members carry identical
	// likelihoods for identical fault sets.
	protected := map[string]bool{}
	for _, r := range reqs {
		collectConditionComponents(r.Condition, protected)
	}
	profile := map[string][]string{}
	candIdx := map[string][]int{} // component -> candidate indices
	for i, m := range muts {
		p.slots[i].class = -1
		profile[m.Component] = append(profile[m.Component],
			m.Fault+"\x00"+strconv.Itoa(int(m.Likelihood)))
		candIdx[m.Component] = append(candIdx[m.Component], i)
	}
	for _, cl := range eng.InterchangeableClasses(protected) {
		byProfile := map[string][]string{}
		var order []string
		var faultsOf [][]string
		for _, comp := range cl {
			pr := append([]string(nil), profile[comp]...)
			sort.Strings(pr)
			key := strings.Join(pr, "\x01")
			if _, seen := byProfile[key]; !seen {
				order = append(order, key)
				faultsOf = append(faultsOf, pr)
			}
			byProfile[key] = append(byProfile[key], comp)
		}
		for j, key := range order {
			members := byProfile[key]
			// A member's fault set must fit one uint64 bitfield; a wider
			// profile is left unclassed (less pruning, never a wrong row).
			if len(members) < 2 || len(faultsOf[j]) > 64 {
				continue
			}
			id := len(p.classes)
			width := len(faultsOf[j])
			p.classes = append(p.classes, len(members))
			p.width = append(p.width, width)
			idx := make([]int, len(members)*width)
			for m, comp := range members {
				for _, i := range candIdx[comp] {
					f := sort.SearchStrings(faultsOf[j],
						muts[i].Fault+"\x00"+strconv.Itoa(int(muts[i].Likelihood)))
					p.slots[i] = orbitSlot{class: int32(id), member: int32(m), fault: uint8(f)}
					idx[m*width+f] = i
				}
			}
			p.classIdx = append(p.classIdx, idx)
		}
	}
	return p
}

// conditionMonotone reports whether the condition is monotone in the
// fault set: growing the scenario (and therefore, on a monotone engine,
// the error states) can only turn it true, never false. NotCond is the
// single non-monotone connective.
func conditionMonotone(c Condition) bool {
	switch cc := c.(type) {
	case AndCond:
		for _, s := range cc.Subs {
			if !conditionMonotone(s) {
				return false
			}
		}
		return true
	case OrCond:
		for _, s := range cc.Subs {
			if !conditionMonotone(s) {
				return false
			}
		}
		return true
	case NotCond:
		return false
	default:
		return true
	}
}

// collectConditionComponents gathers every component a condition
// references (including under negation) into out.
func collectConditionComponents(c Condition, out map[string]bool) {
	switch cc := c.(type) {
	case CompErr:
		out[cc.Component] = true
	case PortErr:
		out[cc.Component] = true
	case ActiveFault:
		out[cc.Component] = true
	case AndCond:
		for _, s := range cc.Subs {
			collectConditionComponents(s, out)
		}
	case OrCond:
		for _, s := range cc.Subs {
			collectConditionComponents(s, out)
		}
	case NotCond:
		collectConditionComponents(cc.Sub, out)
	}
}

// numClasses reports how many refined symmetry classes the sweep uses.
func (p *pruner) numClasses() int { return len(p.classes) }

// tryDominate reports whether the scenario mask has a recorded
// violating subset for every requirement; if so it returns the full
// (sorted) requirement ID list — by monotonicity the scenario violates
// everything.
func (p *pruner) tryDominate(mask []byte) ([]string, bool) {
	if !p.dominance || len(p.reqs) == 0 {
		return nil, false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for i := range p.reqs {
		if !hasViolatingSubset(p.violating[i], mask) {
			return nil, false
		}
	}
	return p.allViolated, true
}

// tryOrbit returns the memoized violated set of the scenario's symmetry
// orbit, given its orbit key, if another member of the orbit has already
// been evaluated.
func (p *pruner) tryOrbit(key []byte) ([]string, bool) {
	if key == nil {
		return nil, false
	}
	p.mu.RLock()
	v, hit := p.orbits[string(key)]
	p.mu.RUnlock()
	return v, hit
}

// record feeds one evaluated (or synthesized) scenario back into the
// pruning state: its mask into the per-requirement dominance index when
// it violates, and its violated set into the orbit memo under key (nil
// when the scenario has no orbit).
func (p *pruner) record(mask, key []byte, violated []string) {
	if !p.dominance && key == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dominance {
		ms := string(mask)
		for _, id := range violated {
			i, ok := p.reqIdx[id]
			if !ok {
				continue
			}
			p.violating[i] = insertMinimalMask(p.violating[i], ms)
		}
	}
	if key != nil {
		if _, seen := p.orbits[string(key)]; !seen {
			// Copy: the caller's slice may alias a ScenarioResult.
			p.orbits[string(key)] = append([]string(nil), violated...)
		}
	}
}

// seedFromCache warms the pruning state from every record already in
// the persistent result cache: synthesized-result records decode to
// their violated sets directly; state-vector records re-evaluate the
// requirements against the restored EPA result. A rank-range shard
// starting past the low-cardinality ranks thereby inherits the minimal
// violating masks earlier shards (or runs) discovered, instead of
// rediscovering nothing — the cross-shard dominance-starvation fix.
// Seeding only ever adds facts that are true of this exact engine and
// requirement set (the cache namespace binds the engine and candidate
// set; synth payloads bind the requirement hash), so it cannot change a
// reported byte — only how many scenarios execute. Returns the number
// of records seeded.
func (p *pruner) seedFromCache(c *store.Cache, eng *epa.Engine, muts []faults.Mutation, maskLen int) int {
	if c == nil || maskLen == 0 {
		return 0
	}
	seeded := 0
	c.Range(func(k, v []byte) bool {
		var mask []byte
		var violated []string
		switch len(k) {
		case maskLen + 1: // synthesized-result record
			if k[maskLen] != synthSuffix {
				return true
			}
			var ok bool
			if violated, ok = p.decodeSynth(v); !ok {
				return true
			}
			mask = k[:maskLen]
		case maskLen: // executed state-vector record
			res, err := eng.ResultFromStates(v)
			if err != nil {
				return true
			}
			sc, ok := scenarioFromMask(k, muts)
			if !ok {
				return true
			}
			for _, r := range p.reqs {
				if Eval(r.Condition, sc, res) {
					violated = append(violated, r.ID)
				}
			}
			sort.Strings(violated)
			mask = k
		default:
			return true
		}
		if _, ok := scenarioFromMask(mask, muts); !ok {
			return true
		}
		p.record(mask, p.orbitKey(nil, mask), violated)
		seeded++
		return true
	})
	return seeded
}

// scenarioFromMask reconstructs the scenario a cache mask denotes: the
// activations of the set bits in candidate-set order — exactly how the
// enumerator builds it. ok is false when the mask has bits outside the
// candidate set (a record from an incompatible writer).
func scenarioFromMask(mask []byte, muts []faults.Mutation) (epa.Scenario, bool) {
	sc := epa.Scenario{}
	set := 0
	for _, b := range mask {
		set += bits.OnesCount8(b)
	}
	for i := range muts {
		if mask[i/8]&(1<<(i%8)) != 0 {
			sc = append(sc, muts[i].Activation)
		}
	}
	return sc, len(sc) == set
}

// orbitKey canonicalizes a scenario mask under the symmetric groups of
// the refined classes and appends the result to dst[:0]. Bits of
// unclassed candidates stay literal; within each class the members'
// fault bitfields are sorted (largest first) and written back to member
// slots 0, 1, ... — the canonical representative of the orbit. Two
// scenarios share a key iff one is the image of the other under some
// verified automorphism. The key is nil when no classed candidate is
// set: a singleton orbit, nothing to memoize.
func (p *pruner) orbitKey(dst, mask []byte) []byte {
	if len(p.classes) == 0 {
		return nil
	}
	// Gather the set classed bits as (class, member, fault bit) and clear
	// them from the key; a scenario sets at most a handful of bits, so
	// the fixed buffer keeps this allocation-free.
	type memberBits struct {
		class, member int32
		field         uint64
	}
	var buf [16]memberBits
	set := buf[:0]
	key := append(dst[:0], mask...)
	for bi, b := range mask {
		for b != 0 {
			i := bi*8 + bits.TrailingZeros8(b)
			b &= b - 1
			if i >= len(p.slots) || p.slots[i].class < 0 {
				continue
			}
			s := p.slots[i]
			key[bi] &^= 1 << (i % 8)
			set = append(set, memberBits{s.class, s.member, 1 << s.fault})
		}
	}
	if len(set) == 0 {
		return nil
	}
	// Order by (class, member) and merge each member's bits into one
	// fault bitfield.
	slices.SortFunc(set, func(a, b memberBits) int {
		if a.class != b.class {
			return cmp.Compare(a.class, b.class)
		}
		return cmp.Compare(a.member, b.member)
	})
	n := 0
	for _, e := range set {
		if n > 0 && set[n-1].class == e.class && set[n-1].member == e.member {
			set[n-1].field |= e.field
			continue
		}
		set[n] = e
		n++
	}
	set = set[:n]
	// Per class: sort the member bitfields and write them back to the
	// leading member slots.
	for lo := 0; lo < len(set); {
		c := set[lo].class
		hi := lo + 1
		for hi < len(set) && set[hi].class == c {
			hi++
		}
		run := set[lo:hi]
		slices.SortFunc(run, func(a, b memberBits) int { return cmp.Compare(b.field, a.field) })
		idx, width := p.classIdx[c], p.width[c]
		for m, e := range run {
			for f := e.field; f != 0; f &= f - 1 {
				i := idx[m*width+bits.TrailingZeros64(f)]
				key[i/8] |= 1 << (i % 8)
			}
		}
		lo = hi
	}
	return key
}

// hasViolatingSubset reports whether any recorded mask is a subset of m.
func hasViolatingSubset(recorded []string, m []byte) bool {
	for _, v := range recorded {
		if isSubsetMask(v, m) {
			return true
		}
	}
	return false
}

func isSubsetMask(sub string, super []byte) bool {
	if len(sub) != len(super) {
		return false
	}
	for i := 0; i < len(sub); i++ {
		if sub[i]&^super[i] != 0 {
			return false
		}
	}
	return true
}

// maxViolatingMasks caps the per-requirement minimal-mask index. The
// antichain stays tiny when small cut sets exist (they subsume their
// supersets on insert), but a sweep that only ever sees high-cardinality
// violations — a rank-range shard starting mid-space, say — would
// otherwise accumulate thousands of incomparable masks and turn every
// index scan quadratic. Dominance is an optimization: dropping masks
// beyond the cap costs prune reach, never correctness.
const maxViolatingMasks = 512

// insertMinimalMask keeps the index antichain-minimal: a new mask with
// an existing subset is redundant; an accepted mask evicts its
// supersets. Minimality bounds the index and maximizes prune reach.
func insertMinimalMask(recorded []string, m string) []string {
	mb := []byte(m)
	for _, v := range recorded {
		if isSubsetMask(v, mb) {
			return recorded
		}
	}
	kept := recorded[:0]
	for _, v := range recorded {
		if !isSubsetMask(m, []byte(v)) {
			kept = append(kept, v)
		}
	}
	if len(kept) >= maxViolatingMasks {
		return kept
	}
	return append(kept, m)
}

// synthKey derives the synthesized-result cache key from a scenario
// mask.
func synthKey(mask []byte) []byte {
	return append(append(make([]byte, 0, len(mask)+1), mask...), synthSuffix)
}

// encodeSynth renders a synthesized-result payload: the requirement-set
// hash (synthesized rows, unlike EPA state vectors, DO depend on the
// requirements) followed by the violated bitmap in requirement order.
func (p *pruner) encodeSynth(violated []string) []byte {
	out := make([]byte, 8+(len(p.reqs)+7)/8)
	binary.BigEndian.PutUint64(out, p.reqsHash)
	for _, id := range violated {
		if i, ok := p.reqIdx[id]; ok {
			out[8+i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// decodeSynth parses a synthesized-result payload, rejecting records
// written under a different requirement set.
func (p *pruner) decodeSynth(b []byte) ([]string, bool) {
	if len(b) != 8+(len(p.reqs)+7)/8 || binary.BigEndian.Uint64(b) != p.reqsHash {
		return nil, false
	}
	var violated []string
	for i, r := range p.reqs {
		if b[8+i/8]&(1<<(i%8)) != 0 {
			violated = append(violated, r.ID)
		}
	}
	sort.Strings(violated)
	return violated, true
}
