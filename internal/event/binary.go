package event

// Binary Snoop operators: SEQ and AND. Both follow the initiator /
// terminator discipline, with pairing controlled by the consumption Mode:
//
//	Recent:     only the most recent initiator is kept; it keeps
//	            initiating detections until replaced.
//	Chronicle:  oldest eligible initiator pairs first; both sides are
//	            consumed.
//	Continuous: every eligible initiator pairs with the terminator (one
//	            detection each); all are consumed.
//	Cumulative: every eligible initiator folds into a single detection;
//	            all are consumed.

// seqNode detects SEQ(left, right): an occurrence of left followed by an
// occurrence of right, with interval semantics end(left) < start(right)
// (SnoopIB).
type seqNode struct {
	baseNode
	left, right node
	mode        Mode
	inits       []*Occurrence
}

func (n *seqNode) kind() string { return "SEQ" }

func (n *seqNode) process(src node, occ *Occurrence, d *Detector) {
	if n.left == n.right {
		// SEQ(E, E): an occurrence first tries to terminate a pending
		// initiator; whether it also becomes an initiator depends on the
		// mode (consuming modes use each occurrence in one role only;
		// Recent keeps the latest occurrence initiating).
		terminated := n.terminate(occ, d)
		if !terminated || n.mode == Recent {
			n.store(occ)
		}
		return
	}
	switch src {
	case n.right:
		n.terminate(occ, d)
	case n.left:
		n.store(occ)
	}
}

// store records occ as an initiator per the node's mode.
func (n *seqNode) store(occ *Occurrence) {
	if n.mode == Recent {
		n.inits = n.inits[:0]
	}
	n.inits = append(n.inits, occ)
}

// terminate pairs occ (a right-side occurrence) against pending
// initiators; it reports whether at least one detection fired.
func (n *seqNode) terminate(occ *Occurrence, d *Detector) bool {
	eligible := func(init *Occurrence) bool { return init.End.Before(occ.Start) }
	switch n.mode {
	case Recent:
		if len(n.inits) > 0 && eligible(n.inits[len(n.inits)-1]) {
			d.deliver(n, compose(n.nm, 0, n.inits[len(n.inits)-1], occ))
			return true
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
				return true
			}
		}
	case Continuous:
		var keep []*Occurrence
		fired := false
		matched := make([]*Occurrence, 0, len(n.inits))
		for _, init := range n.inits {
			if eligible(init) {
				matched = append(matched, init)
			} else {
				keep = append(keep, init)
			}
		}
		if len(matched) > 0 {
			n.inits = keep
			for _, init := range matched {
				d.deliver(n, compose(n.nm, 0, init, occ))
			}
			fired = true
		}
		return fired
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
			parts := append(matched, occ)
			d.deliver(n, compose(n.nm, 0, parts...))
			return true
		}
	}
	return false
}

// andNode detects AND(left, right): both events occurred, in either
// order. Occurrence intervals may overlap.
type andNode struct {
	baseNode
	left, right node
	mode        Mode
	lbuf, rbuf  []*Occurrence
}

func (n *andNode) kind() string { return "AND" }

func (n *andNode) process(src node, occ *Occurrence, d *Detector) {
	if n.left == n.right {
		// AND(E, E): pair consecutive occurrences from one buffer.
		if n.pair(&n.lbuf, occ, d) {
			return
		}
		n.storeSide(&n.lbuf, occ)
		return
	}
	var own, opposite *[]*Occurrence
	switch src {
	case n.left:
		own, opposite = &n.lbuf, &n.rbuf
	case n.right:
		own, opposite = &n.rbuf, &n.lbuf
	default:
		return
	}
	if n.pair(opposite, occ, d) {
		return
	}
	n.storeSide(own, occ)
}

func (n *andNode) storeSide(buf *[]*Occurrence, occ *Occurrence) {
	if n.mode == Recent {
		*buf = (*buf)[:0]
	}
	*buf = append(*buf, occ)
}

// pair matches occ (acting as terminator) against the opposite buffer;
// it reports whether a detection fired.
func (n *andNode) pair(opposite *[]*Occurrence, occ *Occurrence, d *Detector) bool {
	buf := *opposite
	if len(buf) == 0 {
		return false
	}
	switch n.mode {
	case Recent:
		// Latest opposite remains for future pairings.
		d.deliver(n, compose(n.nm, 0, buf[len(buf)-1], occ))
		return true
	case Chronicle:
		init := buf[0]
		*opposite = buf[1:]
		d.deliver(n, compose(n.nm, 0, init, occ))
		return true
	case Continuous:
		*opposite = nil
		for _, init := range buf {
			d.deliver(n, compose(n.nm, 0, init, occ))
		}
		return true
	case Cumulative:
		*opposite = nil
		parts := append(append([]*Occurrence{}, buf...), occ)
		d.deliver(n, compose(n.nm, 0, parts...))
		return true
	}
	return false
}
