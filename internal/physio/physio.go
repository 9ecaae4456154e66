// Package physio implements the physiological algebra of the paper: plan
// components ("granules") at every granularity level of Table 1 — cell
// (query plan), organelle (operator), macro-molecule (index structure type,
// scan method, bulkload/probe algorithm), molecule (node/leaf type, hash
// function, loop discipline) — together with the unnest operation of
// Figure 3 that refines a coarse granule into finer-granular plans.
//
// The optimiser consumes two things from here: the enumeration of concrete
// algorithm choices at a chosen depth (shallow = one opaque "physical
// operator" per family, deep = the full molecule-level space), and the
// granule trees that explain each choice.
package physio

import (
	"fmt"
	"strings"
)

// Level is a granularity level in the living-cell analogy of Table 1.
type Level uint8

// Granularity levels, coarse to fine.
const (
	LevelCell      Level = iota // "physical" query plan (~10000 LOC)
	LevelOrganelle              // "physical" operator (~1000 LOC)
	LevelMacro                  // index structure type, scan method (~100 LOC)
	LevelMolecule               // node type, hash function, loop tricks (~10 LOC)
	LevelAtom                   // assignment, loop init, arithmetic (~1 LOC)
)

// String returns the biology-analogy name.
func (l Level) String() string {
	switch l {
	case LevelCell:
		return "cell"
	case LevelOrganelle:
		return "organelle"
	case LevelMacro:
		return "macro-molecule"
	case LevelMolecule:
		return "molecule"
	case LevelAtom:
		return "atom"
	default:
		return "unknown"
	}
}

// Granule is one node of a physiological plan tree.
type Granule struct {
	Name     string // e.g. "Γ", "partitionBy", "hash-table", "murmur3fin"
	Level    Level
	Detail   string // free-form refinement, e.g. "scheme=chained"
	Children []*Granule
}

// New returns a granule with the given children.
func New(name string, level Level, detail string, children ...*Granule) *Granule {
	return &Granule{Name: name, Level: level, Detail: detail, Children: children}
}

// Size returns the number of granules in the tree.
func (g *Granule) Size() int {
	n := 1
	for _, c := range g.Children {
		n += c.Size()
	}
	return n
}

// Physicality measures how deeply the plan has been unnested: the fraction
// of granules at molecule level or finer. A purely logical plan scores 0; a
// fully resolved deep plan approaches 1. This is the paper's
// logical-physical continuum (Figure 3) made quantitative.
func (g *Granule) Physicality() float64 {
	total, fine := 0, 0
	var rec func(*Granule)
	rec = func(n *Granule) {
		total++
		if n.Level >= LevelMolecule {
			fine++
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(g)
	return float64(fine) / float64(total)
}

// Render returns an indented tree rendering.
func (g *Granule) Render() string {
	var b strings.Builder
	var rec func(n *Granule, depth int)
	rec = func(n *Granule, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		if n.Detail != "" {
			fmt.Fprintf(&b, "[%s]", n.Detail)
		}
		fmt.Fprintf(&b, "  «%s»\n", n.Level)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(g, 0)
	return b.String()
}

// DOT returns a Graphviz rendering of the granule tree, for the shell's
// EXPLAIN output and documentation figures.
func (g *Granule) DOT() string {
	var b strings.Builder
	b.WriteString("digraph granules {\n  node [shape=box, fontname=\"Helvetica\"];\n")
	id := 0
	var rec func(n *Granule) int
	rec = func(n *Granule) int {
		my := id
		id++
		label := n.Name
		if n.Detail != "" {
			label += "\\n" + n.Detail
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n«%s»\"];\n", my, label, n.Level)
		for _, c := range n.Children {
			child := rec(c)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", my, child)
		}
		return my
	}
	rec(g)
	b.WriteString("}\n")
	return b.String()
}

// Clone returns a deep copy of the tree.
func (g *Granule) Clone() *Granule {
	n := &Granule{Name: g.Name, Level: g.Level, Detail: g.Detail}
	for _, c := range g.Children {
		n.Children = append(n.Children, c.Clone())
	}
	return n
}

// Depth selects how far the optimiser unnests operators.
type Depth uint8

// Enumeration depths. Shallow is classical query optimisation: each
// algorithm family is one opaque physical operator with fixed textbook
// internals. Deep unnests into the molecule space: hash functions, sort
// algorithms, loop disciplines.
const (
	Shallow Depth = iota
	Deep
)

// String returns "shallow" or "deep".
func (d Depth) String() string {
	if d == Deep {
		return "deep"
	}
	return "shallow"
}
