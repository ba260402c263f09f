// Event slot engine: the paper's schedules leave most nodes idle in most
// slots, so stepping every node every slot (the dense loop) wastes almost
// all of its work. Nodes that implement protocol.Sleeper pre-draw their
// next non-idle slot as one closed-form geometric gap — idle slots
// consume no randomness in either engine — and the event engine jumps
// from one network event to the next:
//
//   - wakes live in a 4096-slot calendar (eventWheel) with a two-level
//     occupancy bitmap, so the next network event — the minimum over the
//     next node wake, the adversary's budget horizon, channel-span
//     boundaries, and the MaxSlots valve — is found with two or three
//     word scans, and the overflow heap (wakeHeap) only sees
//     astronomically rare gaps ≥ 4096;
//   - slot ranges in which no node wakes are skipped in bulk, with Eve's
//     jamming charged in aggregate via adversary.RangeSpender (jam sets
//     in unobserved slots only matter through their size);
//   - slots are resolved by a lean step (stepSlotLean) that collects the
//     few awake nodes' actions, resolves each listener's channel against
//     the slot's broadcasts and jam mask directly, and bypasses the
//     network's BeginSlot/EndSlot machinery — energy metering still
//     lands in radio.Network's meters, and Eve's per-slot accounting is
//     reproduced call for call (adversary.RangeSpender covers the
//     no-listener slots where only her spend is observable).
//
// An adaptive Eve senses every slot and an Observer wants every slot
// reported, so either one turns off range skipping and the lean step:
// every slot then resolves through the full stepSlot, stepping only the
// awake nodes. Nodes without Sleeper wake every slot. Executions are
// bit-identical to the dense engine for every configuration;
// TestEngineEquivalenceMatrix and FuzzEngineEquivalence pin that down.

package sim

import (
	"math/bits"
	"slices"

	"multicast/internal/adversary"
	"multicast/internal/protocol"
	"multicast/internal/radio"
)

// wheelWindow is the calendar's span: one bucket per slot of the next
// wheelWindow slots. At the lowest per-node rate the engines target
// (p ~ 2⁻¹⁴ in MultiCast's late iterations), P(gap > 4096) is still
// only moderate, and migration through the overflow heap stays correct
// for any gap — the window just bounds how often it is exercised.
const (
	wheelWindow = 4096
	wheelGroups = wheelWindow / 64
)

// wakeEntry is one node's scheduled wake slot.
type wakeEntry struct {
	slot int64
	id   int32
}

// wakeHeap is a binary min-heap of wake entries ordered by slot. It backs
// the wheel's overflow tier, so it only sees far-future wakes.
type wakeHeap []wakeEntry

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[i].slot >= (*h)[parent].slot {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *wakeHeap) popMin() wakeEntry {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && (*h)[l].slot < (*h)[smallest].slot {
			smallest = l
		}
		if r < last && (*h)[r].slot < (*h)[smallest].slot {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// eventWheel is a two-tier calendar queue over wake slots. Near-future
// wakes (slot ∈ [base, base+4096)) live in per-slot buckets addressed by
// slot&4095; buckets are intrusive chains threaded through next (each
// node has at most one pending wake). Occupancy is a two-level bitmap —
// group[g] holds one bit per bucket of group g, summary one bit per
// non-empty group — so the next occupied bucket after any position is
// found with at most three TrailingZeros scans. Far-future wakes wait in
// a wakeHeap and migrate in as the window advances.
type eventWheel struct {
	base     int64   // buckets cover slots [base, base+wheelWindow)
	head     []int32 // [wheelWindow] chain head per bucket, -1 when empty
	next     []int32 // next[id]: chain link, indexed by node id
	group    [wheelGroups]uint64
	summary  uint64
	overflow wakeHeap
	size     int // pending wakes, both tiers

	idbits []uint64 // popSlot id bitmap: one bit per id, zero between pops
}

func newEventWheel(capacity int) *eventWheel {
	w := &eventWheel{
		head:   make([]int32, wheelWindow),
		next:   make([]int32, capacity),
		idbits: make([]uint64, (capacity+63)/64+1),
	}
	for i := range w.head {
		w.head[i] = -1
	}
	return w
}

// reset empties the wheel for a new trial, keeping every allocation.
// Only occupied buckets are cleared — the bitmap remembers them — so the
// per-trial cost is proportional to the pending wakes, not the window.
func (w *eventWheel) reset() {
	for s := w.summary; s != 0; s &= s - 1 {
		g := bits.TrailingZeros64(s)
		for m := w.group[g]; m != 0; m &= m - 1 {
			w.head[g*64+bits.TrailingZeros64(m)] = -1
		}
		w.group[g] = 0
	}
	w.summary = 0
	w.base = 0
	w.overflow = w.overflow[:0]
	w.size = 0
}

// growNext ensures the chain-link array (and the id bitmap) covers id.
// The grow body lives in growNextSlow so this guard — and with it link
// and push — stays within the inliner's budget on the hot path.
func (w *eventWheel) growNext(id int32) {
	if int(id) < len(w.next) {
		return
	}
	w.growNextSlow(id)
}

func (w *eventWheel) growNextSlow(id int32) {
	n := 2 * len(w.next)
	if n <= int(id) {
		n = int(id) + 1
	}
	next := make([]int32, n)
	copy(next, w.next)
	w.next = next
	idbits := make([]uint64, (n+63)/64+1)
	copy(idbits, w.idbits)
	w.idbits = idbits
}

// link threads id onto the bucket chain for an in-window slot.
func (w *eventWheel) link(slot int64, id int32) {
	b := int(slot & (wheelWindow - 1))
	w.growNext(id)
	w.next[id] = w.head[b]
	w.head[b] = id
	w.group[b>>6] |= 1 << (b & 63)
	w.summary |= 1 << (b >> 6)
}

// push schedules id to wake at slot: in-window slots thread onto their
// bucket chain (link's body, spelled out so the hot re-push loop pays
// one call instead of two), later ones spill to the overflow heap.
func (w *eventWheel) push(slot int64, id int32) {
	w.size++
	if slot >= w.base+wheelWindow {
		w.overflow.push(wakeEntry{slot: slot, id: id})
		return
	}
	b := int(slot & (wheelWindow - 1))
	w.growNext(id)
	w.next[id] = w.head[b]
	w.head[b] = id
	w.group[b>>6] |= 1 << (b & 63)
	w.summary |= 1 << (b >> 6)
}

// advance moves the window start to cur and migrates overflow entries
// that now fit. Buckets for slots < cur are necessarily empty (they were
// popped, or never filled), so reusing them for the new window is safe.
// The migration loop is split out so the guard inlines at call sites.
func (w *eventWheel) advance(cur int64) {
	w.base = cur
	if len(w.overflow) != 0 && w.overflow[0].slot < cur+wheelWindow {
		w.migrateOverflow(cur)
	}
}

func (w *eventWheel) migrateOverflow(cur int64) {
	for len(w.overflow) > 0 && w.overflow[0].slot < cur+wheelWindow {
		e := w.overflow.popMin()
		w.link(e.slot, e.id)
	}
}

// nextWakeSlot returns the earliest scheduled wake ≥ cur. The caller
// must have advanced the window to cur first; every bucket entry then
// lies in [cur, cur+wheelWindow) and every overflow entry at or beyond
// the window end, so any bucket hit precedes the overflow head. Returns
// false when empty.
func (w *eventWheel) nextWakeSlot(cur int64) (int64, bool) {
	if w.size == 0 {
		return 0, false
	}
	if w.summary != 0 {
		p := int(cur & (wheelWindow - 1))
		pg, pb := p>>6, p&63
		// Same group, at or after the position bit.
		if rem := w.group[pg] >> pb; rem != 0 {
			return cur + int64(bits.TrailingZeros64(rem)), true
		}
		// Later groups in rotated (wrapping) order, excluding pg itself.
		if rot := bits.RotateLeft64(w.summary, -pg) &^ 1; rot != 0 {
			dg := bits.TrailingZeros64(rot)
			g := (pg + dg) & (wheelGroups - 1)
			b := bits.TrailingZeros64(w.group[g])
			return cur + int64(dg*64-pb+b), true
		}
		// Only pg is occupied and only below the position bit: the wake
		// is one full window wrap ahead.
		low := w.group[pg] & (1<<pb - 1)
		return cur + int64(wheelWindow-pb+bits.TrailingZeros64(low)), true
	}
	return w.overflow[0].slot, true
}

// popSlot appends (in ascending id order) the ids waking exactly at cur
// and returns the extended slice. The caller must have advanced the
// window to cur, so the bucket holds exactly the slot-cur entries.
func (w *eventWheel) popSlot(cur int64, dst []int) []int {
	b := int(cur & (wheelWindow - 1))
	h := w.head[b]
	if h < 0 {
		return dst
	}
	n1 := w.next[h]
	if n1 < 0 {
		// Single wake — the dominant bucket shape at sparse densities;
		// skip chain collection and sorting entirely.
		dst = append(dst, int(h))
		w.size--
		w.clearBucket(b)
		return dst
	}
	if w.next[n1] < 0 {
		// Two wakes: order them with one compare.
		lo, hi := h, n1
		if lo > hi {
			lo, hi = hi, lo
		}
		dst = append(dst, int(lo), int(hi))
		w.size -= 2
		w.clearBucket(b)
		return dst
	}
	// Three or more wakes: mark each id in the bitmap and read the words
	// back — the ids come out ascending with no sort at all, at a cost
	// proportional to the chain plus the id-word span it covers.
	idb := w.idbits
	if len(idb) <= 16 {
		// Small id space (n ≤ ~1000): the whole bitmap is a cache line
		// or two, so scan every word and skip the span bookkeeping the
		// big-n path pays per chain element.
		k := 0
		for id := h; id >= 0; id = w.next[id] {
			idb[int(id)>>6] |= 1 << (uint(id) & 63)
			k++
		}
		for wd := range idb {
			for word := idb[wd]; word != 0; word &= word - 1 {
				dst = append(dst, wd<<6|bits.TrailingZeros64(word))
			}
			idb[wd] = 0
		}
		w.size -= k
		w.clearBucket(b)
		return dst
	}
	lo, hi := len(idb), -1
	k := 0
	for id := h; id >= 0; id = w.next[id] {
		wd := int(id) >> 6
		idb[wd] |= 1 << (uint(id) & 63)
		if wd < lo {
			lo = wd
		}
		if wd > hi {
			hi = wd
		}
		k++
	}
	if hi-lo > 4*k+8 {
		// A handful of ids scattered across a huge id space: the word
		// scan would dominate. Unmark them (the chain is untouched) and
		// sort the chain instead.
		for id := h; id >= 0; id = w.next[id] {
			idb[int(id)>>6] = 0
		}
		return w.popSlotSorted(b, h, k, dst)
	}
	for wd := lo; wd <= hi; wd++ {
		for word := idb[wd]; word != 0; word &= word - 1 {
			dst = append(dst, wd<<6|bits.TrailingZeros64(word))
		}
		idb[wd] = 0
	}
	w.size -= k
	w.clearBucket(b)
	return dst
}

// popSlotSorted drains bucket b (chain head h, k entries) by appending
// the chain to dst and sorting the appended ids in place.
func (w *eventWheel) popSlotSorted(b int, h int32, k int, dst []int) []int {
	start := len(dst)
	for id := h; id >= 0; id = w.next[id] {
		dst = append(dst, int(id))
	}
	slices.Sort(dst[start:])
	w.size -= k
	w.clearBucket(b)
	return dst
}

// clearBucket empties bucket b and drops its occupancy bits.
func (w *eventWheel) clearBucket(b int) {
	w.head[b] = -1
	g := b >> 6
	w.group[g] &^= 1 << (b & 63)
	if w.group[g] == 0 {
		w.summary &^= 1 << g
	}
}

// pendingBroadcast is one Phase 1 broadcast action buffered by the lean
// step: the broadcaster's id, its channel, and its payload.
type pendingBroadcast struct {
	id      int
	ch      int
	payload radio.Payload
}

// pendingListen is one Phase 1 listen action buffered by the lean step:
// the listener's id and the channel it tuned to.
type pendingListen struct {
	id, ch int32
}

// chanTally is one channel's slot occupancy in the lean step, as
// radio.Network's chanState keeps it: the broadcaster count and the
// first-registered payload.
type chanTally struct {
	count   int32
	payload radio.Payload
}

// nextWake returns node id's next wake slot at or after now. Nodes without
// a Sleeper implementation wake every slot, which degenerates gracefully
// to dense stepping for them alone.
func (ex *execution) nextWake(id int, now int64) int64 {
	if sl := ex.sleepers[id]; sl != nil {
		if w := sl.NextActive(now); w >= now {
			return w
		}
	}
	return now
}

// runEvent is the event-calendar slot loop: advance, find the next
// event, bulk-skip the gap, execute the wake slot, reschedule. Every
// adversary call and node call happens in the dense loop's order.
func (ex *execution) runEvent() (Metrics, error) {
	maxSlots := ex.maxSlots()
	// Range skipping needs the slots between wakes to be genuinely
	// unobserved: an adaptive Eve senses every slot, and an Observer
	// wants every slot reported, so either forces the engine to resolve
	// each slot through the full stepSlot (idle nodes are still not
	// stepped). The lean step needs the same conditions. Either way the
	// results are bit-identical.
	skipOK := ex.adaptive == nil && ex.cfg.Observer == nil

	// The wheel and wake buffer are pooled on the execution: an Executor
	// recycles them (and their heap capacity) across trials. NextActive
	// is not idempotent — absorbing an iteration boundary redraws the
	// gap — so each node's first wake is asked for exactly once, here.
	if ex.wheel == nil {
		ex.wheel = newEventWheel(ex.cfg.N)
	} else {
		ex.wheel.reset()
	}
	wheel := ex.wheel
	for _, id := range ex.active {
		wheel.push(ex.nextWake(id, 0), int32(id))
	}
	if skipOK {
		// The lean steps read each node's pre-slot status from this
		// mirror — maintained on every transition — instead of paying a
		// Status interface call per node per slot. Status is a pure
		// observer, so skipping redundant calls cannot perturb the run.
		for _, id := range ex.active {
			ex.prevStatus[id] = ex.nodes[id].Status()
		}
	}
	if cap(ex.awake) < ex.cfg.N {
		ex.awake = make([]int, 0, ex.cfg.N)
	}
	awake := ex.awake[:0]

	// Channel span cached for the lean step; refreshed when cur crosses
	// the span boundary (the third event source in the calendar's
	// min — constant-channel algorithms never refresh).
	spanChannels, spanUntil := 0, int64(0)

	cur := int64(0)
	poll := 0
	for {
		if poll--; poll <= 0 {
			poll = interruptStride
			if ex.interrupted() {
				ex.fillMetrics(cur)
				return ex.metrics, ErrInterrupted
			}
		}
		wheel.advance(cur)
		next, ok := wheel.nextWakeSlot(cur)
		if !ok {
			next = maxSlots
		}
		if next > cur {
			if skipOK {
				to := next
				if to > maxSlots {
					to = maxSlots
				}
				ex.skipRange(cur, to)
				cur = to
			} else {
				for cur < next && cur < maxSlots {
					if cur&(interruptStride-1) == 0 && ex.interrupted() {
						ex.fillMetrics(cur)
						return ex.metrics, ErrInterrupted
					}
					ex.stepSlot(cur, nil, false)
					cur++
				}
			}
		}
		if cur >= maxSlots {
			ex.fillMetrics(cur)
			return ex.metrics, ex.errMaxSlots(cur)
		}
		wheel.advance(cur)
		awake = wheel.popSlot(cur, awake[:0])

		if skipOK {
			if cur >= spanUntil {
				spanChannels, spanUntil = ex.channelSpan(cur)
			}
			ex.stepSlotLean(cur, awake, spanChannels)
		} else {
			ex.stepSlot(cur, awake, false)
		}
		// Pending wakes always belong to non-halted nodes (a node stops
		// being re-pushed the slot it halts), so when the slot recorded
		// no transitions every awake node is still live — skip the
		// per-id Status query. The nextWake logic is spelled out inline:
		// the wrapper call costs a measurable share of the re-push loop.
		if len(ex.transitions) == 0 {
			for _, id := range awake {
				at := cur + 1
				if sl := ex.sleepers[id]; sl != nil {
					if ww := sl.NextActive(at); ww > at {
						at = ww
					}
				}
				wheel.push(at, int32(id))
			}
		} else {
			for _, id := range awake {
				if ex.nodes[id].Status() != protocol.Halted {
					at := cur + 1
					if sl := ex.sleepers[id]; sl != nil {
						if ww := sl.NextActive(at); ww > at {
							at = ww
						}
					}
					wheel.push(at, int32(id))
				}
			}
		}
		if ex.haltedCount == ex.cfg.N {
			ex.fillMetrics(cur + 1)
			return ex.metrics, nil
		}
		cur++
	}
}

// skipRange charges Eve for the unexecuted slots [from, to), splitting the
// range into constant-channel spans.
func (ex *execution) skipRange(from, to int64) {
	for from < to {
		if ex.remaining <= 0 {
			// Out of budget: the dense loop stops calling Fill entirely,
			// so there is no strategy state (or RNG) left to advance.
			return
		}
		channels, until := ex.channelSpan(from)
		end := until
		if end > to {
			end = to
		}
		ex.chargeRange(from, end, channels)
		from = end
	}
}

// channelSpan returns the channel count at slot and the end of the span
// over which it is known constant.
func (ex *execution) channelSpan(slot int64) (int, int64) {
	if ex.spanner != nil {
		channels, until := ex.spanner.ChannelSpan(slot)
		if until <= slot {
			until = slot + 1
		}
		return channels, until
	}
	return ex.alg.Channels(slot), slot + 1
}

// chargeRange spends Eve's budget for skipped slots [from, to), all with
// the same channel count. The aggregate path asks the strategy for its
// ideal total and caps it at the remaining budget — the dense per-slot
// spend min(count, remaining) telescopes to exactly that. Strategies
// without SpendRange fall back to per-slot Fill against a scratch mask,
// reproducing the dense loop's accounting call for call.
func (ex *execution) chargeRange(from, to int64, channels int) {
	if rs := ex.ranged; rs != nil {
		spend := rs.SpendRange(from, to, channels)
		if spend > ex.remaining {
			spend = ex.remaining
		}
		ex.remaining -= spend
		ex.net.ChargeEve(spend)
		return
	}
	ex.mask.Grow(channels)
	for s := from; s < to && ex.remaining > 0; s++ {
		count := ex.adv.Fill(s, channels, ex.mask)
		if count == 0 {
			continue
		}
		ex.mask.Reset()
		spend := int64(count)
		if spend > ex.remaining {
			spend = ex.remaining
		}
		ex.remaining -= spend
		ex.net.ChargeEve(spend)
	}
}

// stepSlotLean advances one slot without the radio.Network slot
// protocol, for the common event-engine slot where a handful of nodes
// act and nobody else can observe the difference. It reproduces
// stepSlot's observable behaviour exactly:
//
//   - node calls (Step, Deliver, EndSlot) happen in the same ascending
//     id order with the same inputs, so node RNG streams are untouched;
//   - Eve's per-slot accounting is identical — when listeners exist her
//     mask is materialised and truncated exactly as in stepSlot, and
//     when none do, only her spend is observable, which
//     adversary.RangeSpender yields for the single-slot range with
//     bit-identical strategy state (the same contract chargeRange
//     relies on for whole skipped ranges);
//   - channel resolution replays radio.Listen's rules (jam → Noise,
//     0/1/≥2 broadcasters → Silence/Message/Noise, first broadcast's
//     payload wins) against a per-channel tally of the slot's
//     broadcasts, so a slot costs listeners + broadcasts lookups, not
//     their product;
//   - energy lands in the network's meters (NodeEnergies/ChargeEve).
//
// Collecting node actions before drawing Eve's jam set is a legal
// reordering: her stream is an independent fork, and obliviousness means
// the mask cannot depend on the actions — the coupling happens entirely
// in the listen resolution.
func (ex *execution) stepSlotLean(slot int64, ids []int, channels int) {
	if len(ids) == 1 {
		ex.stepSlotLean1(slot, ids[0], channels)
		return
	}
	// Phase 1: collect actions; broadcasts buffer instead of registering.
	// Node statuses come from the ex.prevStatus mirror (seeded by runEvent,
	// maintained on every transition below) instead of per-node Status
	// calls, and energy lands in the network's meter slice directly — the
	// same meters Broadcast and Listen charge on the dense engine.
	energy := ex.net.NodeEnergies()
	listens := ex.listens[:0]
	bcasts := ex.bcasts[:0]
	for _, id := range ids {
		nd := ex.nodes[id]
		act := nd.Step(slot)
		switch act.Kind {
		case protocol.Broadcast:
			bcasts = append(bcasts, pendingBroadcast{id: id, ch: act.Channel, payload: act.Payload})
			energy[id]++
		case protocol.Listen:
			listens = append(listens, pendingListen{id: int32(id), ch: int32(act.Channel)})
			energy[id]++
		}
	}
	ex.listens, ex.bcasts = listens, bcasts

	// Eve: same budget arithmetic as stepSlot. With listeners present
	// the jam set is observable; a PrefixJammer answers it in closed
	// form (truncating a prefix to the budget keeps it a prefix),
	// otherwise it is materialised and truncated exactly as in stepSlot.
	// With no listeners, only its size matters.
	jamPrefix := 0   // channels [0, jamPrefix) jammed, via PrefixJammer
	maskJam := false // jam mask materialised in ex.mask
	if ex.remaining > 0 {
		if len(listens) > 0 {
			if pj := ex.prefix; pj != nil {
				k := pj.JamPrefix(slot, channels)
				if int64(k) > ex.remaining {
					k = int(ex.remaining)
				}
				ex.remaining -= int64(k)
				ex.net.ChargeEve(int64(k))
				jamPrefix = k
			} else {
				ex.mask.Grow(channels)
				jamCount := ex.adv.Fill(slot, channels, ex.mask)
				if int64(jamCount) > ex.remaining {
					jamCount = adversary.Truncate(ex.mask, channels, jamCount, int(ex.remaining))
				}
				ex.remaining -= int64(jamCount)
				ex.net.ChargeEve(int64(jamCount))
				maskJam = jamCount > 0
			}
		} else if rs := ex.ranged; rs != nil {
			spend := rs.SpendRange(slot, slot+1, channels)
			if spend > ex.remaining {
				spend = ex.remaining
			}
			ex.remaining -= spend
			ex.net.ChargeEve(spend)
		} else {
			ex.mask.Grow(channels)
			count := ex.adv.Fill(slot, channels, ex.mask)
			if count > 0 {
				ex.mask.Reset()
			}
			spend := int64(count)
			if spend > ex.remaining {
				spend = ex.remaining
			}
			ex.remaining -= spend
			ex.net.ChargeEve(spend)
		}
	}

	// Phase 2: resolve each listener's channel against the tally.
	// Broadcast registration order is ascending id, so the first tallied
	// payload is the one radio.Listen would deliver. Walking the
	// broadcasts again zeroes exactly the touched entries.
	var tally []chanTally
	if len(listens) > 0 && len(bcasts) > 0 {
		tally = ex.tallyBroadcasts(bcasts, channels)
	}
	for _, ln := range listens {
		ch := int(ln.ch)
		var fb radio.Feedback
		if ch < jamPrefix || (maskJam && ex.mask.Test(ch)) {
			fb = radio.Feedback{Status: radio.Noise}
		} else if tally == nil {
			fb = radio.Feedback{Status: radio.Silence}
		} else {
			switch t := tally[ch]; t.count {
			case 0:
				fb = radio.Feedback{Status: radio.Silence}
			case 1:
				fb = radio.Feedback{Status: radio.Message, Payload: t.payload}
			default:
				fb = radio.Feedback{Status: radio.Noise}
			}
		}
		ex.nodes[ln.id].Deliver(fb)
	}
	if tally != nil {
		untallyBroadcasts(tally, bcasts)
	}
	if maskJam {
		ex.mask.Reset()
	}

	// Phase 3: end-of-slot bookkeeping and status transitions, exactly
	// as stepSlot records them.
	ex.transitions = ex.transitions[:0]
	for _, id := range ids {
		nd := ex.nodes[id]
		nd.EndSlot(slot)
		after := nd.Status()
		if before := ex.prevStatus[id]; after != before {
			ex.prevStatus[id] = after
			ex.transitions = append(ex.transitions, transition{id: id, before: before, after: after})
		}
	}
	for _, tr := range ex.transitions {
		if tr.before == protocol.Uninformed && ex.nodes[tr.id].Informed() {
			ex.informedCount++
		}
	}
	if ex.informedCount == ex.cfg.N && ex.metrics.AllInformedSlot < 0 {
		ex.metrics.AllInformedSlot = slot + 1
	}
	for _, tr := range ex.transitions {
		ex.noteTransition(tr, slot)
	}
}

// tallyBroadcasts records bcasts in the lean step's per-channel tally
// and returns it. The tally is zero between slots — untallyBroadcasts
// zeroes exactly the entries this touched — and reallocates only when
// the channel count outgrows every earlier slot's, as the jam mask does.
func (ex *execution) tallyBroadcasts(bcasts []pendingBroadcast, channels int) []chanTally {
	if len(ex.tally) < channels {
		ex.tally = make([]chanTally, channels)
	}
	tally := ex.tally
	for _, bc := range bcasts {
		t := &tally[bc.ch]
		if t.count == 0 {
			t.payload = bc.payload
		}
		t.count++
	}
	return tally
}

// untallyBroadcasts zeroes the tally entries bcasts touched.
func untallyBroadcasts(tally []chanTally, bcasts []pendingBroadcast) {
	for _, bc := range bcasts {
		tally[bc.ch] = chanTally{}
	}
}

// stepSlotLean1 is stepSlotLean for exactly one awake node — the
// dominant slot shape at sparse densities. A lone node cannot collide
// with or hear anyone, so its Listen resolves to noise iff Eve jams its
// channel and silence otherwise; the phase structure and every external
// call (Step, Fill/SpendRange, Deliver, EndSlot, energy charges) are the
// same as the general path's.
func (ex *execution) stepSlotLean1(slot int64, id int, channels int) {
	nd := ex.nodes[id]
	before := ex.prevStatus[id]
	act := nd.Step(slot)
	listen := act.Kind == protocol.Listen
	if act.Kind != protocol.Idle {
		ex.net.NodeEnergies()[id]++
	}

	if ex.remaining > 0 {
		if listen {
			if pj := ex.prefix; pj != nil {
				k := pj.JamPrefix(slot, channels)
				if int64(k) > ex.remaining {
					k = int(ex.remaining)
				}
				ex.remaining -= int64(k)
				ex.net.ChargeEve(int64(k))
				if act.Channel < k {
					nd.Deliver(radio.Feedback{Status: radio.Noise})
				} else {
					nd.Deliver(radio.Feedback{Status: radio.Silence})
				}
			} else {
				ex.mask.Grow(channels)
				jamCount := ex.adv.Fill(slot, channels, ex.mask)
				if int64(jamCount) > ex.remaining {
					jamCount = adversary.Truncate(ex.mask, channels, jamCount, int(ex.remaining))
				}
				ex.remaining -= int64(jamCount)
				ex.net.ChargeEve(int64(jamCount))
				if jamCount > 0 {
					if ex.mask.Test(act.Channel) {
						nd.Deliver(radio.Feedback{Status: radio.Noise})
					} else {
						nd.Deliver(radio.Feedback{Status: radio.Silence})
					}
					ex.mask.Reset()
				} else {
					nd.Deliver(radio.Feedback{Status: radio.Silence})
				}
			}
		} else if rs := ex.ranged; rs != nil {
			spend := rs.SpendRange(slot, slot+1, channels)
			if spend > ex.remaining {
				spend = ex.remaining
			}
			ex.remaining -= spend
			ex.net.ChargeEve(spend)
		} else {
			ex.mask.Grow(channels)
			count := ex.adv.Fill(slot, channels, ex.mask)
			if count > 0 {
				ex.mask.Reset()
			}
			spend := int64(count)
			if spend > ex.remaining {
				spend = ex.remaining
			}
			ex.remaining -= spend
			ex.net.ChargeEve(spend)
		}
	} else if listen {
		nd.Deliver(radio.Feedback{Status: radio.Silence})
	}

	nd.EndSlot(slot)
	after := nd.Status()
	if after != before {
		ex.prevStatus[id] = after
		// The transitions buffer is maintained even for this one-node
		// slot: runEvent's re-push loop reads it to detect halts.
		ex.transitions = append(ex.transitions[:0], transition{id: id, before: before, after: after})
		if before == protocol.Uninformed && nd.Informed() {
			ex.informedCount++
		}
	} else {
		ex.transitions = ex.transitions[:0]
	}
	if ex.informedCount == ex.cfg.N && ex.metrics.AllInformedSlot < 0 {
		ex.metrics.AllInformedSlot = slot + 1
	}
	if after != before {
		ex.noteTransition(transition{id: id, before: before, after: after}, slot)
	}
}
