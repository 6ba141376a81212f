package event

// Disjunctive and counting Snoop operators: OR, NOT and ANY.

// orNode detects OR(e1, ..., en): any occurrence of any child detects.
// Consumption modes are irrelevant (nothing is buffered).
type orNode struct {
	baseNode
	children []node
}

func (n *orNode) kind() string { return "OR" }

func (n *orNode) process(_ node, occ *Occurrence, d *Detector) {
	d.deliver(n, compose(n.nm, 0, occ))
}

// notNode detects NOT(a, b, c): an occurrence of a followed by an
// occurrence of c with no occurrence of b strictly in between. The a
// occurrence initiates, b invalidates pending initiators, c terminates
// (pairing per the consumption mode, as in SEQ).
type notNode struct {
	baseNode
	a, b, c node
	mode    Mode
	inits   []*Occurrence
}

func (n *notNode) kind() string { return "NOT" }

func (n *notNode) process(src node, occ *Occurrence, d *Detector) {
	// Role priority for shared children: invalidator, then terminator,
	// then initiator. A single occurrence may act in several roles when
	// children alias (e.g. NOT(A, B, A)).
	if src == n.b {
		n.invalidate(occ)
		if n.b != n.c && n.b != n.a {
			return
		}
	}
	if src == n.c {
		n.terminate(occ, d)
		if n.c != n.a {
			return
		}
	}
	if src == n.a {
		if n.mode == Recent {
			n.inits = n.inits[:0]
		}
		n.inits = append(n.inits, occ)
	}
}

// invalidate drops initiators whose window [init.End, ...] now contains a
// b occurrence.
func (n *notNode) invalidate(b *Occurrence) {
	keep := n.inits[:0]
	for _, init := range n.inits {
		if !init.End.Before(b.Start) {
			keep = append(keep, init)
		}
	}
	n.inits = keep
}

func (n *notNode) terminate(occ *Occurrence, d *Detector) {
	eligible := func(init *Occurrence) bool { return init.End.Before(occ.Start) }
	switch n.mode {
	case Recent:
		if len(n.inits) > 0 && eligible(n.inits[len(n.inits)-1]) {
			d.deliver(n, compose(n.nm, 0, n.inits[len(n.inits)-1], occ))
		}
	case Chronicle:
		for i, init := range n.inits {
			if eligible(init) {
				if i == 0 {
					n.inits = n.inits[1:] // FIFO head: O(1) pop
				} else {
					n.inits = append(n.inits[:i], n.inits[i+1:]...)
				}
				d.deliver(n, compose(n.nm, 0, init, occ))
				return
			}
		}
	case Continuous:
		var keep, matched []*Occurrence
		for _, init := range n.inits {
			if eligible(init) {
				matched = append(matched, init)
			} else {
				keep = append(keep, init)
			}
		}
		n.inits = keep
		for _, init := range matched {
			d.deliver(n, compose(n.nm, 0, init, occ))
		}
	case Cumulative:
		var keep, matched []*Occurrence
		for _, init := range n.inits {
			if eligible(init) {
				matched = append(matched, init)
			} else {
				keep = append(keep, init)
			}
		}
		if len(matched) > 0 {
			n.inits = keep
			d.deliver(n, compose(n.nm, 0, append(matched, occ)...))
		}
	}
}

// anyNode detects ANY(m, e1, ..., en): m distinct events out of the n
// children have occurred. On detection the collected occurrences are
// consumed. In Recent mode a repeat occurrence of an already-collected
// child replaces the stored one; in the other modes the first stays.
type anyNode struct {
	baseNode
	m        int
	modeVal  Mode
	children []node
	got      map[node]*Occurrence
	order    []node
}

func (n *anyNode) kind() string { return "ANY" }

func (n *anyNode) process(src node, occ *Occurrence, d *Detector) {
	if n.got == nil {
		n.got = make(map[node]*Occurrence, len(n.children))
	}
	if _, seen := n.got[src]; seen {
		if n.mode() == Recent {
			n.got[src] = occ
		}
	} else {
		n.got[src] = occ
		n.order = append(n.order, src)
	}
	if len(n.got) >= n.m {
		parts := make([]*Occurrence, 0, len(n.order))
		for _, c := range n.order {
			parts = append(parts, n.got[c])
		}
		n.got = nil
		n.order = nil
		d.deliver(n, compose(n.nm, 0, parts...))
	}
}

func (n *anyNode) mode() Mode { return n.modeVal }
