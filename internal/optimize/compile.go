package optimize

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
)

// compiled is a Problem lowered to option bitmasks. Option i is bit i of
// a selection mask. Blocking depends only on an activation's sources, and
// the scenario rows repeat a handful of activations, so the rows collapse
// into groups keyed by the set of distinct blockable activations they
// contain; a selection's residual loss is then a walk over those groups
// instead of over every row. compile builds it once per optimizer call.
type compiled struct {
	budget int
	ids    []string // option IDs by bit
	costs  []int    // option costs by bit
	byID   []int    // option bits in ascending ID order

	// Distinct blockable activations. Activation a is blocked by sel iff
	// sel&m != 0 for every m in srcMask[actSrc[a]:actSrc[a+1]].
	srcMask []uint64
	actSrc  []int32
	words   int // uint64 words per activation set

	// Scenario groups: the scenarios sharing one set of blockable
	// activations (groupActs[g*words:(g+1)*words]), losses summed. A group
	// stays residual while no activation of its set is blocked; the group
	// with the empty set (unblockable scenarios) always does.
	groupActs []uint64
	groupLoss []int
	// groupRaw[rawOff[g]:rawOff[g+1]] lists the distinct raw activations
	// (the [][]string structures, blockable or not) of group g's rows.
	groupRaw []int32
	rawOff   []int32
	// bundles[bundleOff[r]:bundleOff[r+1]] are raw activation r's greedy
	// bundles — one blocker per source — as option masks.
	bundles   []uint64
	bundleOff []int32

	blocked    []uint64 // scratch activation set
	keyA, keyB []byte   // scratch tie-break keys
}

// interner numbers distinct byte keys in first-seen order.
type interner map[string]int32

func (in interner) id(key []byte) (int32, bool) {
	if id, ok := in[string(key)]; ok {
		return id, false
	}
	id := int32(len(in))
	in[string(key)] = id
	return id, true
}

// compile lowers a validated problem (at most 64 options).
func compile(p *Problem) *compiled {
	c := &compiled{budget: p.Budget, actSrc: []int32{0}, bundleOff: []int32{0}}
	bit := make(map[string]int, len(p.Options))
	for i, o := range p.Options {
		bit[o.ID] = i
		c.ids = append(c.ids, o.ID)
		c.costs = append(c.costs, o.Cost)
		c.byID = append(c.byID, i)
	}
	sort.Slice(c.byID, func(a, b int) bool { return c.ids[c.byID[a]] < c.ids[c.byID[b]] })
	bitOf := func(id string) uint64 {
		if i, ok := bit[id]; ok {
			return 1 << i
		}
		return 0
	}

	// Pass 1: number each distinct raw activation once, lowering it to
	// its blockable activation (-1 when some source has no known blocker)
	// and its greedy bundles.
	raws, acts := interner{}, interner{}
	var (
		rawAct  []int32
		scenRaw []int32
		scenOff = make([]int32, 1, len(p.Scenarios)+1)
		key     []byte
		masks   []uint64
		cur     = []uint64{0}
		grown   []uint64
	)
	for _, s := range p.Scenarios {
		for _, sources := range s.Activations {
			if len(sources) == 0 {
				continue // never blocks and yields no bundle
			}
			key = key[:0]
			for _, blockers := range sources {
				key = binary.AppendUvarint(key, uint64(len(blockers)))
				for _, id := range blockers {
					key = binary.AppendUvarint(key, uint64(len(id)))
					key = append(key, id...)
				}
			}
			r, fresh := raws.id(key)
			scenRaw = append(scenRaw, r)
			if !fresh {
				continue
			}
			masks = masks[:0]
			for _, blockers := range sources {
				var m uint64
				for _, id := range blockers {
					m |= bitOf(id)
				}
				if m == 0 {
					masks = nil
					break
				}
				masks = append(masks, m)
			}
			a := int32(-1)
			if masks != nil {
				slices.Sort(masks)
				masks = slices.Compact(masks)
				key = key[:0]
				for _, m := range masks {
					key = binary.LittleEndian.AppendUint64(key, m)
				}
				var fresh bool
				if a, fresh = acts.id(key); fresh {
					c.srcMask = append(c.srcMask, masks...)
					c.actSrc = append(c.actSrc, int32(len(c.srcMask)))
				}
			}
			rawAct = append(rawAct, a)
			// Bundles grow one source at a time; the growth is capped at
			// 64 per source (singles still apply beyond it).
			cur = append(cur[:0], 0)
			for _, blockers := range sources {
				if len(blockers) == 0 {
					cur = cur[:0]
					break
				}
				grown = grown[:0]
				for _, b := range cur {
					for _, id := range blockers {
						grown = append(grown, b|bitOf(id))
					}
					if len(grown) > 64 {
						break
					}
				}
				cur, grown = grown, cur
			}
			start := len(c.bundles)
			for _, b := range cur {
				if b != 0 {
					c.bundles = append(c.bundles, b)
				}
			}
			slices.Sort(c.bundles[start:])
			c.bundles = c.bundles[:start+len(slices.Compact(c.bundles[start:]))]
			c.bundleOff = append(c.bundleOff, int32(len(c.bundles)))
		}
		scenOff = append(scenOff, int32(len(scenRaw)))
	}

	// Pass 2: group the rows by their blockable activation set.
	c.words = max(1, (len(acts)+63)/64)
	c.blocked = make([]uint64, c.words)
	groups := interner{}
	set := make([]uint64, c.words)
	var pairs []uint64 // group<<32 | raw
	for si, s := range p.Scenarios {
		clear(set)
		rs := scenRaw[scenOff[si]:scenOff[si+1]]
		for _, r := range rs {
			if a := rawAct[r]; a >= 0 {
				set[a>>6] |= 1 << (a & 63)
			}
		}
		key = key[:0]
		for _, w := range set {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		g, fresh := groups.id(key)
		if fresh {
			c.groupActs = append(c.groupActs, set...)
			c.groupLoss = append(c.groupLoss, 0)
		}
		c.groupLoss[g] += s.Loss
		for _, r := range rs {
			pairs = append(pairs, uint64(g)<<32|uint64(r))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	c.rawOff = make([]int32, len(c.groupLoss)+1)
	c.groupRaw = make([]int32, len(pairs))
	for i, pr := range pairs {
		c.rawOff[(pr>>32)+1]++
		c.groupRaw[i] = int32(uint32(pr))
	}
	for g := range c.groupLoss {
		c.rawOff[g+1] += c.rawOff[g]
	}
	return c
}

// block returns the set of activations sel blocks (in c.blocked).
func (c *compiled) block(sel uint64) []uint64 {
	bl := c.blocked
	clear(bl)
	for a := 0; a+1 < len(c.actSrc); a++ {
		all := true
		for _, m := range c.srcMask[c.actSrc[a]:c.actSrc[a+1]] {
			if sel&m == 0 {
				all = false
				break
			}
		}
		if all {
			bl[a>>6] |= 1 << (a & 63)
		}
	}
	return bl
}

// residualGroup reports whether group g keeps its loss when the
// activations in bl are blocked.
func (c *compiled) residualGroup(g int, bl []uint64) bool {
	for w, x := range c.groupActs[g*c.words : (g+1)*c.words] {
		if x&bl[w] != 0 {
			return false
		}
	}
	return true
}

// residual sums the losses of the scenarios sel leaves unblocked.
func (c *compiled) residual(sel uint64) int {
	bl := c.block(sel)
	loss := 0
	for g, l := range c.groupLoss {
		if c.residualGroup(g, bl) {
			loss += l
		}
	}
	return loss
}

// cost sums the option costs of sel.
func (c *compiled) cost(sel uint64) int {
	total := 0
	for ; sel != 0; sel &= sel - 1 {
		total += c.costs[bits.TrailingZeros64(sel)]
	}
	return total
}

// selection turns a mask back into the map Evaluate scores.
func (c *compiled) selection(sel uint64) map[string]bool {
	m := make(map[string]bool, bits.OnesCount64(sel))
	for ; sel != 0; sel &= sel - 1 {
		m[c.ids[bits.TrailingZeros64(sel)]] = true
	}
	return m
}

// appendIDs appends sel's IDs in ascending order, separated by sep.
func (c *compiled) appendIDs(dst []byte, sel uint64, sep byte) []byte {
	first := true
	for _, i := range c.byID {
		if sel&(1<<i) == 0 {
			continue
		}
		if !first {
			dst = append(dst, sep)
		}
		first = false
		dst = append(dst, c.ids[i]...)
	}
	return dst
}

// selectionLess orders selections as fmt.Sprint orders their sorted ID
// lists ("[a b]"), the exact search's final tie-break.
func (c *compiled) selectionLess(a, b uint64) bool {
	c.keyA = append(c.appendIDs(append(c.keyA[:0], '['), a, ' '), ']')
	c.keyB = append(c.appendIDs(append(c.keyB[:0], '['), b, ' '), ']')
	return bytes.Compare(c.keyA, c.keyB) < 0
}

// moveLess orders greedy moves by their "+"-joined sorted IDs.
func (c *compiled) moveLess(a, b uint64) bool {
	c.keyA = c.appendIDs(c.keyA[:0], a, '+')
	c.keyB = c.appendIDs(c.keyB[:0], b, '+')
	return bytes.Compare(c.keyA, c.keyB) < 0
}

// moves returns the greedy candidates under selection sel, sorted and
// deduplicated: every unbought option alone, plus the unbought part of
// each bundle of every raw activation occurring in a scenario sel leaves
// unblocked.
func (c *compiled) moves(dst []uint64, sel uint64) []uint64 {
	for i := range c.costs {
		if sel&(1<<i) == 0 {
			dst = append(dst, 1<<i)
		}
	}
	bl := c.block(sel)
	for g := range c.groupLoss {
		if !c.residualGroup(g, bl) {
			continue
		}
		for _, r := range c.groupRaw[c.rawOff[g]:c.rawOff[g+1]] {
			for _, m := range c.bundles[c.bundleOff[r]:c.bundleOff[r+1]] {
				if m&^sel != 0 {
					dst = append(dst, m&^sel)
				}
			}
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}
