package forest

import "fmt"

// FlatNode is one tree node, in the layout shared by the in-memory
// forest and the wire form. Internal nodes carry the split (Feature,
// Threshold) and the indices of their children inside the tree's node
// array; leaves carry the class distribution and children of -1. The
// flat layout keeps the wire form free of recursion so a hostile
// checkpoint cannot stack-overflow the decoder, and lets inference walk
// a contiguous array instead of chasing heap pointers.
type FlatNode struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t"`
	Left      int       `json:"l"`
	Right     int       `json:"r"`
	Probs     []float64 `json:"p,omitempty"`
}

// TreeSnapshot is one serialized tree: Nodes[0] is the root.
type TreeSnapshot struct {
	Nodes []FlatNode `json:"nodes"`
}

// Snapshot is the serializable form of a trained Forest — the model
// checkpoint written by the serving layer so a restarted process can
// reload the exact ensemble instead of retraining. InBag preserves the
// bootstrap membership so out-of-bag estimates survive the round trip.
type Snapshot struct {
	NumClasses int            `json:"num_classes"`
	Trees      []TreeSnapshot `json:"trees"`
	InBag      [][]bool       `json:"in_bag,omitempty"`
}

// Snapshot copies the forest into its serializable form. The in-memory
// trees already hold the preorder flat arrays, so this is a deep copy,
// not a traversal. Nil forests snapshot to nil.
func (f *Forest) Snapshot() *Snapshot {
	if f == nil {
		return nil
	}
	s := &Snapshot{NumClasses: f.numClasses, Trees: make([]TreeSnapshot, len(f.trees))}
	for i, t := range f.trees {
		nodes := make([]FlatNode, len(t.nodes))
		copy(nodes, t.nodes)
		for j := range nodes {
			if nodes[j].Probs != nil {
				nodes[j].Probs = append([]float64(nil), nodes[j].Probs...)
			}
		}
		s.Trees[i] = TreeSnapshot{Nodes: nodes}
	}
	for _, bag := range f.inBag {
		s.InBag = append(s.InBag, append([]bool(nil), bag...))
	}
	return s
}

// FromSnapshot rebuilds a Forest from its serialized form, validating
// the node graph (indices in range, acyclic by forward reference, leaf
// distributions sized to NumClasses) and the in-bag masks (none, or one
// per tree, all of one length) so a corrupted checkpoint fails loudly
// instead of predicting garbage. Only nodes reachable from the root are
// kept, re-packed in preorder, so a round trip through Snapshot is
// byte-stable. Without masks, out-of-bag predictions fall back to the
// full ensemble. A nil snapshot returns nil.
func FromSnapshot(s *Snapshot) (*Forest, error) {
	if s == nil {
		return nil, nil
	}
	if s.NumClasses <= 0 {
		return nil, fmt.Errorf("forest snapshot: num_classes %d", s.NumClasses)
	}
	if len(s.InBag) != 0 && len(s.InBag) != len(s.Trees) {
		return nil, fmt.Errorf("forest snapshot: %d in-bag rows for %d trees", len(s.InBag), len(s.Trees))
	}
	for ti, bag := range s.InBag {
		if len(bag) != len(s.InBag[0]) {
			return nil, fmt.Errorf("forest snapshot: tree %d in-bag mask has %d rows, tree 0 has %d", ti, len(bag), len(s.InBag[0]))
		}
	}
	f := &Forest{numClasses: s.NumClasses}
	for ti, ts := range s.Trees {
		nodes := make([]FlatNode, 0, len(ts.Nodes))
		if _, err := unflatten(ts.Nodes, 0, s.NumClasses, &nodes); err != nil {
			return nil, fmt.Errorf("forest snapshot: tree %d: %w", ti, err)
		}
		f.trees = append(f.trees, tree{nodes: nodes})
	}
	for _, bag := range s.InBag {
		f.inBag = append(f.inBag, append([]bool(nil), bag...))
	}
	return f, nil
}

// unflatten validates and copies the subtree rooted at src index at into
// dst (preorder), returning its dst index. Children must sit strictly
// after their parent in src (the preorder invariant), which rules out
// cycles without a visited set.
func unflatten(src []FlatNode, at, numClasses int, dst *[]FlatNode) (int, error) {
	if at < 0 || at >= len(src) {
		return 0, fmt.Errorf("node index %d out of range [0, %d)", at, len(src))
	}
	fn := src[at]
	out := len(*dst)
	if fn.Probs != nil {
		if len(fn.Probs) != numClasses {
			return 0, fmt.Errorf("leaf %d has %d probs, want %d", at, len(fn.Probs), numClasses)
		}
		*dst = append(*dst, FlatNode{Left: -1, Right: -1,
			Probs: append([]float64(nil), fn.Probs...)})
		return out, nil
	}
	if fn.Left <= at || fn.Right <= at {
		return 0, fmt.Errorf("node %d children (%d, %d) not strictly after parent", at, fn.Left, fn.Right)
	}
	*dst = append(*dst, FlatNode{Feature: fn.Feature, Threshold: fn.Threshold, Left: -1, Right: -1})
	l, err := unflatten(src, fn.Left, numClasses, dst)
	if err != nil {
		return 0, err
	}
	r, err := unflatten(src, fn.Right, numClasses, dst)
	if err != nil {
		return 0, err
	}
	(*dst)[out].Left = l
	(*dst)[out].Right = r
	return out, nil
}
