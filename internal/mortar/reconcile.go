package mortar

import (
	"fmt"
	"time"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// This file implements query persistence (§6): the chunked install/remove
// multicast and the pair-wise reconciliation protocol that guarantees
// eventual installation and removal — both keyed on (name, epoch) so a
// replanned query can run its old and new epochs side by side — plus the
// epoch hand-off of a live replan: install acknowledgements flowing back
// to the root, and the root's make-before-break retirement of the old
// epoch once the new one is fully wired.

// chunk is one component of the install multicast: the set of member peers
// plus the tree edges used to forward within the component.
type chunk struct {
	head    int
	members map[int]neighbors
	forward map[int][]int
}

// installComponents is the n of §6's "the peer breaks the tree into n
// components and multicasts the query down each component in parallel";
// §7.1 uses 16.
const installComponents = 16

// buildChunks partitions the primary tree into at most installComponents+1
// connected components, each multicast in parallel down its tree edges
// (§6). One bottom-up pass in reverse BFS order: a member whose subtree,
// less what components below it already claimed, reaches
// ⌈members/installComponents⌉ heads a component of its own, and the root
// heads whatever is left. Every head but the root claims at least that
// many members, so there are at most installComponents of them.
func buildChunks(def *QueryDef) []*chunk {
	primary := def.Trees.Trees[0]
	n := primary.NumPeers()
	limit := (n + installComponents - 1) / installComponents
	order := make([]int, 1, n)
	order[0] = primary.Root
	for i := 0; i < len(order); i++ {
		order = append(order, primary.Children[order[i]]...)
	}
	unclaimed := make([]int, n)
	heads := make([]bool, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		unclaimed[v] = 1
		for _, ch := range primary.Children[v] {
			if !heads[ch] {
				unclaimed[v] += unclaimed[ch]
			}
		}
		heads[v] = unclaimed[v] >= limit || v == primary.Root
	}

	subtrees := def.subtreeSizes()
	var chunks []*chunk
	chunkOf := make([]*chunk, n)
	for _, v := range order {
		if heads[v] {
			chunkOf[v] = &chunk{
				head:    def.Members[v],
				members: map[int]neighbors{},
				forward: map[int][]int{},
			}
			chunks = append(chunks, chunkOf[v])
		}
		c, peer := chunkOf[v], def.Members[v]
		c.members[peer] = neighborsFor(def, subtrees, v)
		for _, ch := range primary.Children[v] {
			if !heads[ch] {
				chunkOf[ch] = c
				c.forward[peer] = append(c.forward[peer], def.Members[ch])
			}
		}
	}
	return chunks
}

// subChunk restricts an install message to the subtree reachable from a
// forwarding target, so forwarded messages shrink as they descend.
func subChunk(m msgInstall, from int) msgInstall {
	out := msgInstall{
		Meta:    m.Meta,
		Members: map[int]neighbors{},
		Forward: map[int][]int{},
	}
	queue := []int{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if nb, ok := m.Members[v]; ok {
			out.Members[v] = nb
		}
		if kids, ok := m.Forward[v]; ok {
			out.Forward[v] = kids
			queue = append(queue, kids...)
		}
	}
	return out
}

// startInstall runs at the issuing peer (the query root): install locally,
// then multicast. The root's frame reads def.Meta.Age now — or, for a
// replan, what its running epoch of the query reads, so both epochs share
// one frame — and every install leaves carrying the root's frame time.
func (p *Peer) startInstall(def *QueryDef) {
	chunks := buildChunks(def)
	meta, at := def.Meta, p.now()
	for _, k := range p.sortedInstKeys() {
		if k.name == meta.Name {
			meta.Age = p.insts[k].frameNow()
			break
		}
	}
	// Install locally first (the issuer is a member).
	for _, c := range chunks {
		if nb, ok := c.members[p.id]; ok {
			p.installLocal(meta, &nb, def, at)
		}
	}
	for _, c := range chunks {
		m := msgInstall{Meta: meta, Members: c.members, Forward: c.forward}
		m.Meta.Age += p.now() - at
		if c.head == p.id {
			// Forward our own chunk's children directly.
			for _, next := range c.forward[p.id] {
				p.fab.send(p.id, next, runtime.ClassControl, subChunk(m, next))
			}
			continue
		}
		p.fab.send(p.id, c.head, runtime.ClassControl, m)
	}
}

// installLocal creates (or refreshes) the operator instance for
// (meta.Name, meta.Epoch), its frame reading meta.Age when this peer's
// clock read sentAt — the message's transmit time, or now at the root.
// def is non-nil only at the root/issuer. An install whose Seq a live
// instance of another (name, epoch) holds is refused and counted
// (Stats.InstallsRefused): summaries name their operator by Seq alone.
func (p *Peer) installLocal(meta QueryMeta, nb *neighbors, def *QueryDef, sentAt time.Duration) {
	if p.covered(meta.Name, meta.Seq, meta.Epoch) {
		return // removal supersedes this install
	}
	key := instKey{name: meta.Name, epoch: meta.Epoch}
	if held, ok := p.bySeq[meta.Seq]; ok && (instKey{held.meta.Name, held.meta.Epoch}) != key {
		p.fab.Stats.InstallsRefused.Add(1)
		return
	}
	replaced := false
	if old, ok := p.insts[key]; ok {
		if old.meta.Seq >= meta.Seq {
			if nb != nil && !old.wired {
				old.wire(*nb)
			}
			return
		}
		old.stop()
		p.deleteInst(key)
		replaced = true
	}
	inst, err := p.newInstance(meta, sentAt)
	if err != nil {
		if replaced {
			p.pruneNeighborState()
		}
		return // unknown operator on this peer; reconciliation may retry
	}
	inst.def = def
	p.addInst(key, inst)
	if nb != nil {
		inst.wire(*nb)
		if replaced {
			// The superseded instance's tree positions are gone; any
			// neighbors not shared with the new wiring are stale.
			p.pruneNeighborState()
		}
	} else {
		p.pendingTopo[key] = true
		p.fab.send(p.id, meta.Root, runtime.ClassControl,
			msgTopoRequest{Query: meta.Name, Epoch: meta.Epoch, Peer: p.id})
	}
	p.ensureHeartbeats()
	inst.start()
}

// wire attaches the instance to its tree positions and joins the heartbeat
// mesh.
func (inst *instance) wire(nb neighbors) {
	inst.nb = nb
	inst.wired = true
	inst.cacheOwnLevels()
	p := inst.peer
	for _, pa := range nb.Parents {
		if pa >= 0 {
			p.markHeard(pa)
		}
	}
	for _, kids := range nb.Children {
		for _, c := range kids {
			p.markHeard(c)
		}
	}
	p.ensureHeartbeats()
	delete(p.pendingTopo, instKey{name: inst.meta.Name, epoch: inst.meta.Epoch})
	inst.maybeAck()
}

// maybeAck reports a wired epoch back to the query root, which counts the
// acks to drive make-before-break retirement. Epoch-0 installs are silent:
// the initial install has nothing to retire, so the paper's install
// traffic is unchanged. The root records its own ack directly.
func (inst *instance) maybeAck() {
	if inst.meta.Epoch == 0 || !inst.wired {
		return
	}
	p := inst.peer
	if inst.meta.Root == p.id {
		p.recordAck(inst, p.id)
		return
	}
	p.fab.send(p.id, inst.meta.Root, runtime.ClassControl, msgInstallAck{
		Query: inst.meta.Name,
		Epoch: inst.meta.Epoch,
		Seq:   inst.meta.Seq,
		Peer:  p.id,
	})
}

// reackMigratingEpochs re-sends install acks on reconciliation beats while
// this peer still hosts an older epoch of the same query: a lost ack must
// not stall a retirement, and the loop terminates on its own because the
// retirement removes the older epoch that triggers the re-ack.
func (p *Peer) reackMigratingEpochs() {
	for _, k := range p.sortedInstKeys() {
		inst := p.insts[k]
		if k.epoch == 0 || !inst.wired {
			continue
		}
		for other := range p.insts {
			if other.name == k.name && other.epoch < k.epoch {
				inst.maybeAck()
				break
			}
		}
	}
}

func (p *Peer) handleInstall(src int, m msgInstall) {
	p.markHeard(src)
	nb, ok := m.Members[p.id]
	if ok {
		p.installLocal(m.Meta, &nb, nil, m.SentAt)
	}
	m.Meta.Age += p.now() - m.SentAt // forwarded at this peer's frame time
	for _, next := range m.Forward[p.id] {
		p.fab.send(p.id, next, runtime.ClassControl, subChunk(m, next))
	}
}

// --- Epoch hand-off (make-before-break) ---

// handleInstallAck runs at a query root: record that a member wired the
// epoch, and retire the previous epoch once every member has.
func (p *Peer) handleInstallAck(src int, m msgInstallAck) {
	inst, ok := p.insts[instKey{name: m.Query, epoch: m.Epoch}]
	if !ok || inst.def == nil || inst.meta.Seq != m.Seq {
		return // not (or no longer) the issuer of this epoch
	}
	p.recordAck(inst, m.Peer)
}

func (p *Peer) recordAck(inst *instance, peer int) {
	if inst.def == nil || inst.def.memberIndex(peer) < 0 {
		return
	}
	if inst.acked == nil {
		inst.acked = make(map[int]struct{}, len(inst.def.Members))
	}
	inst.acked[peer] = struct{}{}
	p.maybeRetireOld(inst)
}

// retireReportCap bounds how long a fully-acked new epoch waits for its
// completeness to catch the old epoch's before retiring it anyway — the
// safety valve that keeps a migration from stalling behind a permanently
// degraded old plan.
const retireReportCap = 10

// maybeRetireOld completes a migration. Two conditions gate the hand-off:
// every member of the new epoch has acked it installed-and-wired, and the
// new epoch's root has reported completeness at least matching the old
// epoch's most recent report (wiring alone is not enough — a fresh epoch
// still needs a few windows to learn netDist, and retiring early would
// dip completeness the moment the old epoch stops windowing at the
// sources). Then the root multicasts an epoch-scoped removal retiring
// every older epoch: make-before-break.
func (p *Peer) maybeRetireOld(inst *instance) {
	if inst.retired || inst.meta.Epoch == 0 || inst.def == nil {
		return
	}
	if len(inst.acked) < len(inst.def.Members) {
		return
	}
	// The newest older epoch's definition drives the removal multicast's
	// chunking (it is that tree set being torn down).
	var old *instance
	for k, cand := range p.insts {
		if k.name != inst.meta.Name || k.epoch >= inst.meta.Epoch || cand.draining {
			continue
		}
		if old == nil || k.epoch > old.meta.Epoch {
			old = cand
		}
	}
	if old == nil {
		inst.retired = true
		return // nothing left to retire
	}
	if inst.lastCount < old.lastCount && inst.reportsAfterAck < retireReportCap {
		return // new epoch not yet performing at the old one's level
	}
	inst.retired = true
	p.fab.Stats.EpochsRetired.Add(1)
	p.startRemoveWith(old.def, inst.meta.Name, inst.meta.Seq, inst.meta.Epoch-1)
}

// --- Removal ---

// startRemove multicasts a removal using a definition cached at the root;
// epoch scopes it (wire.AllEpochs removes the whole query).
func (p *Peer) startRemove(name string, seq uint64, epoch uint32) error {
	def := p.defOf(name, epoch)
	if def == nil {
		return fmt.Errorf("mortar: peer %d does not hold a definition of %q", p.id, name)
	}
	p.startRemoveWith(def, name, seq, epoch)
	return nil
}

func (p *Peer) startRemoveWith(def *QueryDef, name string, seq uint64, epoch uint32) {
	if def == nil {
		return
	}
	chunks := buildChunks(def)
	p.removeLocal(name, seq, epoch)
	for _, c := range chunks {
		m := msgRemove{Name: name, Seq: seq, Epoch: epoch, Forward: c.forward}
		if c.head == p.id {
			for _, next := range c.forward[p.id] {
				p.fab.send(p.id, next, runtime.ClassControl, m)
			}
			continue
		}
		p.fab.send(p.id, c.head, runtime.ClassControl, m)
	}
}

// defOf returns the cached definition of the given epoch if this peer
// holds it, else the newest definition of the name it holds at all (a
// whole-query removal chunks along whatever tree set the root still has).
func (p *Peer) defOf(name string, epoch uint32) *QueryDef {
	if inst, ok := p.insts[instKey{name: name, epoch: epoch}]; ok && inst.def != nil {
		return inst.def
	}
	var best *instance
	for k, inst := range p.insts {
		if k.name != name || inst.def == nil {
			continue
		}
		if best == nil || k.epoch > best.meta.Epoch {
			best = inst
		}
	}
	if best == nil {
		return nil
	}
	return best.def
}

// maxMarksPerName bounds one query name's removal antichain. Marks from
// one management history are totally ordered (each later removal has a
// higher seq and an equal or wider scope), so the set only grows past one
// entry through whole-query-removal + re-creation cycles; the cap is a
// hostile-input backstop, evicting the oldest command if ever reached.
const maxMarksPerName = 8

// marksCover reports whether any mark in the set covers (seq, epoch).
func marksCover(marks []wire.RemovedMark, seq uint64, epoch uint32) bool {
	for _, m := range marks {
		if m.Covers(seq, epoch) {
			return true
		}
	}
	return false
}

// covered reports whether a cached removal supersedes an install of the
// given (seq, epoch).
func (p *Peer) covered(name string, seq uint64, epoch uint32) bool {
	return marksCover(p.removed[name], seq, epoch)
}

// addMark folds one removal command into the name's non-dominated mark
// set; it reports false when an existing mark already dominates it (a
// duplicate delivery, already applied).
func (p *Peer) addMark(name string, mark wire.RemovedMark) bool {
	marks := p.removed[name]
	for _, m := range marks {
		if m.Dominates(mark) {
			return false
		}
	}
	kept := make([]wire.RemovedMark, 0, len(marks)+1)
	for _, m := range marks {
		if !mark.Dominates(m) {
			kept = append(kept, m)
		}
	}
	kept = append(kept, mark)
	if len(kept) > maxMarksPerName {
		wire.SortMarks(kept)
		kept = kept[1:] // evict the oldest command
	}
	p.removed[name] = kept
	return true
}

// removeLocal applies one removal command: record the mark (so delayed
// installs of covered epochs are suppressed) and tear down covered
// instances. Two guards make stale removes documented no-ops at every
// peer: an instance with seq >= the removal's is never touched (a stale
// or replayed remove cannot undo a newer install), and an instance with
// epoch > the removal's is never touched (a delayed old-epoch retirement
// cannot tear down the epoch that replaced it). Whole-query removals
// (wire.AllEpochs) tear down immediately, as the paper's removal does;
// epoch-scoped retirements drain — in-flight windows keep merging and
// routing until the drain period ends.
func (p *Peer) removeLocal(name string, seq uint64, epoch uint32) {
	if !p.addMark(name, wire.RemovedMark{Seq: seq, Epoch: epoch}) {
		return // duplicate of the multicast, already applied
	}
	drain := p.livenessWindow()
	for k, inst := range p.insts {
		if k.name != name || k.epoch > epoch || inst.meta.Seq >= seq {
			continue
		}
		if epoch == wire.AllEpochs {
			inst.stop()
			p.deleteInst(k)
			// The removed query's tree edges may have been the only reason
			// we tracked some neighbors; drop their liveness and dedup
			// state.
			p.pruneNeighborState()
		} else {
			inst.beginDrain(drain)
		}
	}
	for k := range p.pendingTopo {
		if k.name == name && k.epoch <= epoch {
			delete(p.pendingTopo, k)
		}
	}
}

func (p *Peer) handleRemove(src int, m msgRemove) {
	p.markHeard(src)
	p.removeLocal(m.Name, m.Seq, m.Epoch)
	for _, next := range m.Forward[p.id] {
		p.fab.send(p.id, next, runtime.ClassControl, m)
	}
}

// --- Pair-wise reconciliation (§6.1) ---

// missingMarks returns the marks of ours the sender's set does not
// dominate — what it still needs to learn.
func missingMarks(ours, theirs []wire.RemovedMark) []wire.RemovedMark {
	var out []wire.RemovedMark
	for _, mark := range ours {
		dominated := false
		for _, t := range theirs {
			if t.Dominates(mark) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, mark)
		}
	}
	return out
}

// reconSummary describes this peer's installed instances — keyed
// (name, epoch) — and cached removals. Draining instances are omitted:
// they are on their way out and must not be re-offered.
func (p *Peer) reconSummary() msgReconSummary {
	m := msgReconSummary{
		Installed: make(map[wire.QueryKey]uint64, len(p.insts)),
		Removed:   make(map[string][]wire.RemovedMark, len(p.removed)),
	}
	for _, k := range p.sortedInstKeys() {
		inst := p.insts[k]
		if inst.draining {
			continue
		}
		m.Installed[wire.QueryKey{Name: k.name, Epoch: k.epoch}] = inst.meta.Seq
		m.Metas = append(m.Metas, inst.metaNow())
	}
	for name, marks := range p.removed {
		m.Removed[name] = append([]wire.RemovedMark(nil), marks...)
	}
	return m
}

// metaNow returns the instance's meta stamped with its frame time now.
func (inst *instance) metaNow() QueryMeta {
	m := inst.meta
	m.Age = inst.frameNow()
	return m
}

// handleReconSummary performs the reconciliation set computation: adopt
// what the sender knows and we missed, then reply with what the sender is
// missing.
func (p *Peer) handleReconSummary(src int, m msgReconSummary) {
	p.adopt(m.Removed, m.Metas, m.SentAt)
	// Reply with what the sender is missing.
	reply := msgReconDefs{Removed: map[string][]wire.RemovedMark{}}
	for _, k := range p.sortedInstKeys() {
		inst := p.insts[k]
		if inst.draining {
			continue
		}
		if seq, ok := m.Installed[wire.QueryKey{Name: k.name, Epoch: k.epoch}]; !ok || seq < inst.meta.Seq {
			if marksCover(m.Removed[k.name], inst.meta.Seq, k.epoch) {
				continue
			}
			reply.Metas = append(reply.Metas, inst.metaNow())
		}
	}
	for name, marks := range p.removed {
		if missing := missingMarks(marks, m.Removed[name]); len(missing) > 0 {
			reply.Removed[name] = missing
		}
	}
	if len(reply.Metas) > 0 || len(reply.Removed) > 0 {
		p.fab.send(p.id, src, runtime.ClassControl, reply)
	}
}

// handleReconDefs adopts the reply to a summary this peer sent.
func (p *Peer) handleReconDefs(src int, m msgReconDefs) {
	p.adopt(m.Removed, m.Metas, m.SentAt)
}

// adopt applies what a reconciliation partner knows and this peer missed:
// first its removals (RC), then the (name, epoch) instances they do not
// cover and this peer lacks (IC), framed from the message's sentAt.
func (p *Peer) adopt(removed map[string][]wire.RemovedMark, metas []QueryMeta, sentAt time.Duration) {
	for name, marks := range removed {
		for _, mark := range marks {
			p.removeLocal(name, mark.Seq, mark.Epoch)
		}
	}
	for _, meta := range metas {
		if inst, ok := p.insts[instKey{name: meta.Name, epoch: meta.Epoch}]; ok && inst.meta.Seq >= meta.Seq {
			continue
		}
		if p.covered(meta.Name, meta.Seq, meta.Epoch) {
			continue
		}
		p.installLocal(meta, nil, nil, sentAt)
	}
}

// --- Topology service (§6.1) ---

// handleTopoRequest runs at a query root: return the requester's
// parent/child sets per tree of the named epoch, "acting as a topology
// server".
func (p *Peer) handleTopoRequest(src int, m msgTopoRequest) {
	inst, ok := p.insts[instKey{name: m.Query, epoch: m.Epoch}]
	if !ok || inst.def == nil || inst.draining {
		// A covering removal mark is authoritative: tell the requester the
		// epoch is gone, quoting the widest covering mark's seq. (The live
		// instance is consulted first — a removal of a prior incarnation
		// must not shadow a re-created query.)
		var best wire.RemovedMark
		found := false
		for _, mark := range p.removed[m.Query] {
			if m.Epoch <= mark.Epoch && (!found || mark.Seq > best.Seq) {
				best, found = mark, true
			}
		}
		if found {
			p.fab.send(p.id, src, runtime.ClassControl,
				msgTopoReply{Query: m.Query, Epoch: m.Epoch, Seq: best.Seq, Unknown: true})
		}
		return // else: not the topology server for this epoch; requester retries
	}
	mi := inst.def.memberIndex(m.Peer)
	if mi < 0 {
		p.fab.send(p.id, src, runtime.ClassControl,
			msgTopoReply{Query: m.Query, Epoch: m.Epoch, Seq: inst.meta.Seq, Unknown: true})
		return
	}
	p.fab.send(p.id, src, runtime.ClassControl, msgTopoReply{
		Query: m.Query,
		Epoch: m.Epoch,
		Seq:   inst.meta.Seq,
		NB:    neighborsFor(inst.def, inst.def.subtreeSizes(), mi),
	})
}

func (p *Peer) handleTopoReply(src int, m msgTopoReply) {
	inst, ok := p.insts[instKey{name: m.Query, epoch: m.Epoch}]
	if !ok {
		return
	}
	if m.Unknown {
		p.removeLocal(m.Query, m.Seq, m.Epoch)
		return
	}
	if !inst.wired {
		inst.wire(m.NB)
	}
}

// retryPendingTopo re-requests tree positions for adopted-but-unwired
// instances; called on reconciliation beats.
func (p *Peer) retryPendingTopo() {
	for key := range p.pendingTopo {
		if inst, ok := p.insts[key]; ok && !inst.wired {
			p.fab.send(p.id, inst.meta.Root, runtime.ClassControl,
				msgTopoRequest{Query: key.name, Epoch: key.epoch, Peer: p.id})
		}
	}
}
