package proto

import (
	"fmt"
	"strings"

	"ghostwriter/internal/cache"
)

// Markdown renders the protocol's transition tables as GitHub-flavoured
// markdown: one row per guarded rule, in dispatch order, with the
// unreachable-pair counts footnoted. DESIGN.md §4.2 embeds this rendering;
// `ghostwriter -tables -protocol <name>` regenerates it for any registered
// protocol.
func Markdown(p *Protocol) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Protocol `%s` — L1 table\n\n", p.Name)
	b.WriteString("| State | Event | Guards | Next | Actions |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for si := 0; si < NumL1States; si++ {
		for ei := 0; ei < NumL1Events; ei++ {
			s, ev := cache.State(si), Event(ei)
			for _, r := range p.L1[si][ei] {
				next := "·"
				if r.Next != Stay {
					next = L1StateName(r.Next)
				}
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
					L1StateName(s), ev, guardList(r.Guards, r.NegGuards), next, actionList(r.Actions))
			}
		}
	}
	fmt.Fprintf(&b, "\n%d unreachable (state, event) pairs allowlisted with reasons.\n", len(p.L1Unreachable))

	fmt.Fprintf(&b, "\n### Protocol `%s` — directory table\n\n", p.Name)
	b.WriteString("| State | Event | Guards | Next | Actions |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for si := 0; si < int(NumDirStates); si++ {
		for ev := EvGETS; ev < NumEvents; ev++ {
			s := DirState(si)
			for _, r := range p.Dir.Rules(s, ev) {
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
					s, ev, guardList(r.Guards, r.NegGuards), r.Next, actionList(r.Actions))
			}
		}
	}
	return b.String()
}

func guardList[G fmt.Stringer](gs, neg []G) string {
	if len(gs) == 0 && len(neg) == 0 {
		return "—"
	}
	parts := make([]string, 0, len(gs)+len(neg))
	for _, g := range gs {
		parts = append(parts, g.String())
	}
	for _, g := range neg {
		parts = append(parts, "¬"+g.String())
	}
	return strings.Join(parts, " ∧ ")
}

func actionList[A fmt.Stringer](as []A) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}
