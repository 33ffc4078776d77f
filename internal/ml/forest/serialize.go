package forest

// FlatNode is one tree node, in the layout shared by the in-memory
// forest and its Snapshot. Internal nodes carry the split (Feature,
// Threshold) and the indices of their children inside the tree's node
// array, which lists the tree in preorder; leaves carry the class
// distribution and children of -1. The flat layout lets inference walk
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

// Snapshot is the serializable form of a trained Forest: every tree's
// nodes and the bootstrap membership (InBag) behind its out-of-bag
// estimates. The reference tests compare forests through it.
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
