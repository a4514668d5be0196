package typestate

// This file implements core.SliceableClient: the type-state analysis
// decomposes by tracked allocation site. Each abstract state (h, t, a, n)
// tracks at most one object, allocated at site h, and h never changes
// after the spawn — a tuple for site X evolves without ever consulting
// tuples of other sites. The h=0 bootstrap flow (which performs all alias
// bookkeeping for not-yet-spawned objects) is likewise independent of
// which sites spawn. So restricting fresh-tuple spawning to one site
// yields exactly the monolithic run's states with h ∈ {0, X}, and the
// union over all tracked sites of the slices' error-observable states is
// the monolithic set (DESIGN.md spells out the argument).
//
// Each slice gets a fresh Analysis instance: the frozen construction
// tables (paths, sites, properties, may-alias matrix) are shared
// read-only, while every intern table is per-instance and re-seeded by
// initMutable in construction order. Concurrently running slices therefore
// never write a shared table, and each slice's ID assignment is that of a
// fresh pipeline — interned IDs order the solvers' sorted sets, worklists
// and pruning tie-breaks.

import (
	"fmt"

	"swift/internal/core"
)

// Slices implements core.SliceableClient: one slice per tracked
// allocation site, identified by its site label, in site-ID (= sorted
// label) order. A program with no tracked sites gets the single bootstrap
// slice "<none>", which spawns nothing — the sliced run then degenerates
// to one monolithic bootstrap-only analysis.
func (a *Analysis) Slices() []core.SliceID {
	t := a.tab
	var out []core.SliceID
	for sid := 1; sid < len(t.sites); sid++ {
		if t.sitePropOf[sid] >= 0 {
			out = append(out, core.SliceID(t.sites[sid]))
		}
	}
	if len(out) == 0 {
		out = append(out, core.SliceID(t.sites[0]))
	}
	return out
}

// SliceClient implements core.SliceableClient: it returns a fresh,
// independently usable Analysis restricted to the slice's site, and the
// slice's bootstrap state in that instance's ID space.
func (a *Analysis) SliceClient(id core.SliceID) (core.Client[AbsID, RelID, FormulaID], AbsID, error) {
	if a.slice >= 0 {
		return nil, 0, fmt.Errorf("typestate: cannot slice the %q slice client", a.tab.sites[a.slice])
	}
	sid, ok := a.tab.siteIDs[string(id)]
	if !ok {
		return nil, 0, fmt.Errorf("typestate: unknown slice %q", id)
	}
	if sid != 0 && a.tab.sitePropOf[sid] < 0 {
		return nil, 0, fmt.Errorf("typestate: site %q is untracked and has no slice", id)
	}
	b := a.sliceClone(sid)
	return b, b.initial, nil
}

// sliceClone builds the slice's Analysis: shared frozen tables, fresh
// intern tables seeded in the same order as NewAnalysis.
func (a *Analysis) sliceClone(sid SiteID) *Analysis {
	t := a.tab
	b := &Analysis{
		prog:  a.prog,
		track: a.track,
		slice: sid,
		tab: &tables{
			// Frozen after NewAnalysis; shared read-only across slices.
			paths:      t.paths,
			pathIDs:    t.pathIDs,
			rootedOf:   t.rootedOf,
			fieldOf:    t.fieldOf,
			siteIDs:    t.siteIDs,
			sites:      t.sites,
			sitePropOf: t.sitePropOf,
			props:      t.props,
			propBase:   t.propBase,
			numG:       t.numG,
			propOfG:    t.propOfG,
			localOfG:   t.localOfG,
			isErrorG:   t.isErrorG,
			mayAlias:   t.mayAlias,
			relevant:   t.relevant,
		},
	}
	// Mutable: fresh per slice.
	b.resetMutable()
	b.initMutable()
	return b
}

// compile-time check that the analysis satisfies the slicing capability.
var _ core.SliceableClient[AbsID, RelID, FormulaID] = (*Analysis)(nil)
