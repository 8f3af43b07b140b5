package fused

import (
	"fmt"
	"sort"
	"strings"
)

// Policy selects how conflicting values for the same global label are
// reconciled when sources disagree.
type Policy uint8

const (
	// PolicyPreferPrimary keeps the value from the highest-priority source
	// (registration order; LocusLink is the curated authority for genes).
	PolicyPreferPrimary Policy = iota
	// PolicyMajority keeps the value most sources agree on, breaking ties
	// by source priority.
	PolicyMajority
	// PolicyUnion keeps every distinct value as repeated edges — "report
	// all", the no-reconciliation behaviour of the K2/Kleisli and
	// DiscoveryLink baselines.
	PolicyUnion
)

func (p Policy) String() string {
	switch p {
	case PolicyPreferPrimary:
		return "prefer-primary"
	case PolicyMajority:
		return "majority"
	case PolicyUnion:
		return "union"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// SourceValue is one value contribution with provenance.
type SourceValue struct {
	Source string
	Value  any
}

// Conflict records one reconciled disagreement.
type Conflict struct {
	EntityKey string // fusion key of the affected entity
	Label     string
	Values    []SourceValue // the distinct contributions
	Winner    SourceValue   // zero Value for PolicyUnion
}

func (c Conflict) String() string {
	var parts []string
	for _, v := range c.Values {
		parts = append(parts, fmt.Sprintf("%s=%v", v.Source, v.Value))
	}
	return fmt.Sprintf("%s.%s: %s -> %v (%s)", c.EntityKey, c.Label, strings.Join(parts, " vs "), c.Winner.Value, c.Winner.Source)
}

// valueKey normalizes a contribution value for grouping and removal:
// values of any type (including non-comparable ones) key by type and
// printed form, the same equivalence reconciliation groups by.
func valueKey(v any) string { return fmt.Sprintf("%T:%v", v, v) }

// reconcile picks the winning values for one label from per-source
// contributions. priority maps source name -> rank (lower wins). It returns
// the values to materialize and, when sources disagreed, the conflict
// record.
func reconcile(entityKey, label string, contributions []SourceValue, policy Policy, priority map[string]int) ([]SourceValue, *Conflict) {
	if len(contributions) == 0 {
		return nil, nil
	}
	// Group by normalized value.
	type group struct {
		value   SourceValue
		sources []string
	}
	var groups []group
	seen := map[string]int{}
	for _, c := range contributions {
		k := valueKey(c.Value)
		if gi, ok := seen[k]; ok {
			groups[gi].sources = append(groups[gi].sources, c.Source)
			// Keep the highest-priority provenance for the group.
			if priority[c.Source] < priority[groups[gi].value.Source] {
				groups[gi].value = c
			}
			continue
		}
		seen[k] = len(groups)
		groups = append(groups, group{value: c, sources: []string{c.Source}})
	}
	if len(groups) == 1 {
		return []SourceValue{groups[0].value}, nil
	}
	distinct := make([]SourceValue, len(groups))
	for i, g := range groups {
		distinct[i] = g.value
	}
	conflict := &Conflict{EntityKey: entityKey, Label: label, Values: distinct}
	switch policy {
	case PolicyUnion:
		return distinct, conflict
	case PolicyMajority:
		sort.SliceStable(groups, func(i, j int) bool {
			if len(groups[i].sources) != len(groups[j].sources) {
				return len(groups[i].sources) > len(groups[j].sources)
			}
			return priority[groups[i].value.Source] < priority[groups[j].value.Source]
		})
		conflict.Winner = groups[0].value
		return []SourceValue{groups[0].value}, conflict
	default: // PolicyPreferPrimary
		best := groups[0]
		for _, g := range groups[1:] {
			if priority[g.value.Source] < priority[best.value.Source] {
				best = g
			}
		}
		conflict.Winner = best.value
		return []SourceValue{best.value}, conflict
	}
}
