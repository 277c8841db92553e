package proto

import "ghostwriter/internal/cache"

// The three base protocols share one directory table (the Ghostwriter
// states are invisible to the directory: GS rides the sharer list, GI is
// untracked) and differ only in the L1 rows that enter and service GS/GI:
//
//   - mesi:        pure baseline; scribbles escalate to conventional stores.
//   - ghostwriter: the paper's Fig. 3 — GS and GI.
//   - gw-noGI:     the GS-only ablation; scribbles on Invalid blocks run
//     conventionally (no comparator, no fallback counted).
//
// Each variant is its base cloned with one row edited:
//
//   - gw-msi:     ghostwriter over a base with no Exclusive state — a GETS
//     on an uncached block is granted S, not E (the GS/GI retrofit is not
//     MESI-specific).
//   - mesi-mig:   mesi with the Stenström-style migratory optimisation (§5's
//     conventional alternative): a read of a block the detector classified
//     as migratory is granted ownership, saving the follow-up UPGRADE.
//   - mesi-stale: mesi with Rengasamy-style stale loads (§5's prior
//     approximate-coherence work): inside an approximate region a load to an
//     Invalid block with its tag present hits the stale data, without a GETS.
//   - gw-stale:   ghostwriter with the same stale loads.
//   - gw-resident: ghostwriter read literally off Fig. 3 — a scribble on a
//     GS block hits without the scribe comparator (only the drift bound
//     gates it), so the table declares itself Resident.
//   - gw-escalate: ghostwriter re-running the comparator on a scribble to a
//     GI block as well; a dissimilar value refetches with GETX.
func init() {
	dir, dirUn := buildDir()
	mesiL1, mesiUn := buildL1(false, false)
	mesi := &Protocol{Name: "mesi", L1: mesiL1, Dir: dir,
		L1Unreachable: mesiUn, DirUnreachable: dirUn}
	gwL1, gwUn := buildL1(true, true)
	gw := &Protocol{Name: "ghostwriter", L1: gwL1, Dir: dir,
		L1Unreachable: gwUn, DirUnreachable: dirUn}
	noGIL1, noGIUn := buildL1(true, false)
	Register(mesi)
	Register(gw)
	Register(&Protocol{Name: "gw-noGI", L1: noGIL1, Dir: dir,
		L1Unreachable: noGIUn, DirUnreachable: dirUn})

	msi := variant(gw, "gw-msi")
	msi.Dir[DirInvalid][EvGETS-EvGETS] = []DirTransition{dtr(DirShared, DGrantFreshS)}
	Register(msi)

	mig := variant(mesi, "mesi-mig")
	mig.Dir[DirOwned][EvGETS-EvGETS] = append([]DirTransition{
		dtrg(dg(DGMigratory), DirOwned, DAssertNotOwner, DMigratoryGrant),
	}, mig.Dir[DirOwned][EvGETS-EvGETS]...)
	Register(mig)

	staleHit := trg(g(GStaleLoad), Stay, ACountLoadHit, ACountStaleHit, AMeterRead, ATouch, ACompleteHitLoad)
	for name, base := range map[string]*Protocol{"mesi-stale": mesi, "gw-stale": gw} {
		stale := variant(base, name)
		stale.L1[cache.Invalid][EvLoad] = append([]Transition{staleHit}, stale.L1[cache.Invalid][EvLoad]...)
		Register(stale)
	}

	resident := variant(gw, "gw-resident")
	resident.Resident = true
	resident.L1[cache.GS][EvScribble][0].Guards = g(GUnderBound)
	Register(resident)

	escalate := variant(gw, "gw-escalate")
	escalate.L1[cache.GI][EvScribble][0].Guards = g(GWithin, GUnderBound)
	Register(escalate)
}

// variant clones base under a new name, for a one-row edit.
func variant(base *Protocol, name string) *Protocol {
	p := base.Clone()
	p.Name = name
	return p
}

// tr builds an unguarded rule; trg a guarded one.
func tr(next cache.State, actions ...Action) Transition {
	return Transition{Next: next, Actions: actions}
}

func trg(guards []Guard, next cache.State, actions ...Action) Transition {
	return Transition{Guards: guards, Next: next, Actions: actions}
}

func g(guards ...Guard) []Guard { return guards }

// buildL1 assembles the L1 table with the GS rows (gs) and GI rows (gi)
// included or omitted. Omitted approximate states are blanket-allowlisted
// as never entered.
func buildL1(gs, gi bool) (L1Table, map[L1Key]string) {
	var t L1Table
	un := map[L1Key]string{}
	row := func(s cache.State, ev Event, rules ...Transition) {
		t[s][ev] = rules
	}
	mark := func(why string, ev Event, states ...cache.State) {
		for _, s := range states {
			un[L1Key{State: s, Event: ev}] = why
		}
	}

	// ---- Core-side events -------------------------------------------------

	const blocked = "the core is blocking: no new op while a miss or eviction is outstanding"
	for _, ev := range []Event{EvLoad, EvStore, EvScribble} {
		mark(blocked, ev, cache.ISD, cache.IMD, cache.SMA, cache.EVA)
	}

	// Load: hits on every locally readable state (GS/GI read the divergent
	// local data — approximate execution); Invalid is a coherence miss
	// reusing the frame (the stale-load variants prepend a hit rule).
	hitLoad := tr(Stay, ACountLoadHit, AMeterRead, ATouch, ACompleteHitLoad)
	row(cache.Shared, EvLoad, hitLoad)
	row(cache.Exclusive, EvLoad, hitLoad)
	row(cache.Modified, EvLoad, hitLoad)
	if gs {
		row(cache.GS, EvLoad, hitLoad)
	}
	if gi {
		row(cache.GI, EvLoad, hitLoad)
	}
	row(cache.Invalid, EvLoad, tr(cache.ISD, ACountLoadMiss, AMeterTag, ASendGETS))
	row(Absent, EvLoad, tr(Stay, ACountLoadMiss, AMeterTag, AAllocGETS))

	// Store (also the target of scribble escalation via AAsStore). The
	// GS/GI rows service conventional stores locally while the region is
	// approximate (§3.2); past the region (or for atomics, or past the
	// drift bound) they escalate — UPGRADE from GS publishes the locally
	// accumulated block, GETX from GI refetches coherent data.
	escalateS := tr(cache.SMA, ACountStoresOnS, ACountStoreMiss, AMeterTag, AClearUpgInv, ASendUPGRADE)
	escalateI := tr(cache.IMD, ACountStoresOnI, ACountStoreMiss, AMeterTag, ASendGETX)
	row(Absent, EvStore, tr(Stay, ACountStoreMiss, AMeterTag, AAllocGETX))
	row(cache.Modified, EvStore, tr(Stay, AWriteHit))
	row(cache.Exclusive, EvStore, tr(cache.Modified, AWriteHit))
	row(cache.Shared, EvStore, escalateS)
	row(cache.Invalid, EvStore, escalateI)
	if gs {
		row(cache.GS, EvStore,
			trg(g(GApproxStore, GUnderBound), Stay, ACountStoresOnS, ACountServicedGS, AWriteHit),
			escalateS)
	}
	if gi {
		row(cache.GI, EvStore,
			trg(g(GApproxStore, GUnderBound), Stay, ACountStoresOnI, ACountServicedGI, AWriteHit),
			escalateI)
	}

	// Scribble: the scribe comparator gates entry into GS/GI (Fig. 3).
	// Dissimilar values fall back to the conventional store path. On a block
	// already resident the base rows take the hybrid reading (DESIGN.md
	// §4.2): GS re-runs the comparator, GI hits and only the timeout bounds
	// it; gw-resident and gw-escalate are the other two readings.
	asStore := tr(Stay, AAsStore)
	row(Absent, EvScribble, asStore)
	row(cache.Modified, EvScribble, asStore)
	row(cache.Exclusive, EvScribble, asStore)
	if gs {
		row(cache.Shared, EvScribble,
			trg(g(GWithin), cache.GS, ACountStoresOnS, ACountServicedGS, ACountGSEntry, ASetHidden1, AWriteHit),
			tr(Stay, ACountFallback, AAsStore))
		row(cache.GS, EvScribble,
			trg(g(GWithin, GUnderBound), Stay, ACountStoresOnS, ACountServicedGS, AWriteHit),
			tr(cache.SMA, ACountFallback, ACountStoresOnS, ACountStoreMiss, AMeterTag, AClearUpgInv, ASendUPGRADE))
	} else {
		row(cache.Shared, EvScribble, asStore)
	}
	if gi {
		row(cache.Invalid, EvScribble,
			trg(g(GWithin), cache.GI, ACountStoresOnI, ACountServicedGI, ACountGIEntry, ASetHidden1, AWriteHit),
			tr(Stay, ACountFallback, AAsStore))
		row(cache.GI, EvScribble,
			trg(g(GUnderBound), Stay, ACountStoresOnI, ACountServicedGI, AWriteHit),
			tr(cache.IMD, ACountFallback, ACountStoresOnI, ACountStoreMiss, AMeterTag, ASendGETX))
	} else {
		row(cache.Invalid, EvScribble, asStore)
	}

	// ---- Network-side events ----------------------------------------------

	// The directory is blocking, so no other transaction on a line reaches
	// a requestor still waiting for its grant: no row handles that race.
	const unblocked = "the directory holds the line busy until this requestor's Unblock, which only its fill sends"

	// Inv: the directory invalidates listed sharers. A GS copy loses its
	// hidden updates (back to system-wide coherency); SM_A marks its raced
	// upgrade stale; EV_A just acknowledges (the PUT is in flight).
	row(cache.Shared, EvInv, tr(cache.Invalid, AAckInv))
	if gs {
		row(cache.GS, EvInv, tr(cache.Invalid, ACountGSInv, AAckInv))
	}
	row(cache.SMA, EvInv, tr(Stay, AMarkUpgInvalidated, AAckInv))
	row(cache.EVA, EvInv, tr(Stay, AAckInv))
	mark(unblocked, EvInv, cache.ISD)
	mark("untracked: the directory only invalidates listed sharers",
		EvInv, Absent, cache.Invalid)
	mark("the owner is reclaimed by FwdGETX or RecallOwn, never Inv",
		EvInv, cache.Exclusive, cache.Modified)
	mark("IM_D is only entered from untracked I/GI; GS escalations go through SM_A",
		EvInv, cache.IMD)
	if gi {
		mark("GI copies are unknown to the directory (entered from untracked I)",
			EvInv, cache.GI)
	}

	// RecallOwn / forwards target the recorded owner.
	row(cache.Modified, EvRecallOwn, tr(cache.Invalid, ARecallData))
	row(cache.Exclusive, EvRecallOwn, tr(cache.Invalid, ARecallData))
	row(cache.EVA, EvRecallOwn, tr(Stay, ARecallData))
	{
		why := "recalls target the recorded owner: M/E, or EV_A mid-eviction"
		states := []cache.State{Absent, cache.Invalid, cache.Shared, cache.ISD, cache.IMD, cache.SMA}
		if gs {
			states = append(states, cache.GS)
		}
		if gi {
			states = append(states, cache.GI)
		}
		mark(why, EvRecallOwn, states...)
	}
	// The owner serves a forward from its copy: a read downgrades it to a
	// sharer, a write invalidates it. Mid-eviction (EV_A) the PUT in flight
	// settles the copy, so the state stays.
	for _, ev := range []Event{EvFwdGETS, EvFwdGETX} {
		next := cache.Shared
		if ev == EvFwdGETX {
			next = cache.Invalid
		}
		row(cache.Modified, ev, tr(next, AServeFwd))
		row(cache.Exclusive, ev, tr(next, AServeFwd))
		row(cache.EVA, ev, tr(Stay, AServeFwd))
		mark(unblocked, ev, cache.IMD, cache.SMA)
		why := "forwards target the recorded owner: M/E, or EV_A mid-eviction"
		states := []cache.State{Absent, cache.Invalid, cache.Shared, cache.ISD}
		if gs {
			states = append(states, cache.GS)
		}
		if gi {
			states = append(states, cache.GI)
		}
		mark(why, ev, states...)
	}

	// Fills, upgrade acks, put acks: answers to the single outstanding
	// transaction. Each fill sends the Unblock that frees the line at the
	// directory.
	fillLoad := []Action{AFill, ATouch, AUnblock, ACompleteFillLoad}
	fillWrite := []Action{AFill, AApplyWrite, ATouch, AUnblock, ACompleteWrite}
	row(cache.ISD, EvDataS, tr(cache.Shared, fillLoad...))
	row(cache.ISD, EvDataE, tr(cache.Exclusive, fillLoad...))
	row(cache.ISD, EvDataC2C,
		trg(g(GGrantIsS), cache.Shared, fillLoad...),
		trg(g(GGrantIsM), cache.Modified, fillLoad...)) // migratory grant to a read
	row(cache.IMD, EvDataM, tr(cache.Modified, fillWrite...))
	row(cache.SMA, EvDataM, tr(cache.Modified, fillWrite...)) // raced upgrade answered with data
	row(cache.IMD, EvDataC2C, trg(g(GGrantIsM), cache.Modified, fillWrite...))
	row(cache.SMA, EvDataC2C, trg(g(GGrantIsM), cache.Modified, fillWrite...))
	row(cache.SMA, EvUpgAck,
		tr(cache.Modified, AAssertUpgValid, AApplyWrite, AMeterWrite, ATouch, AUnblock, ACompleteWrite))
	row(cache.EVA, EvPutAck, tr(Stay, AFinishEviction))
	others := func(ev Event, why string, in ...cache.State) {
		ok := map[cache.State]bool{}
		for _, s := range in {
			ok[s] = true
		}
		var states []cache.State
		for si := 0; si < NumL1States; si++ {
			s := cache.State(si)
			if ok[s] || (s == cache.GS && !gs) || (s == cache.GI && !gi) {
				continue
			}
			states = append(states, s)
		}
		mark(why, ev, states...)
	}
	others(EvDataS, "DataS answers an outstanding GETS (IS_D)", cache.ISD)
	others(EvDataE, "DataE answers an outstanding GETS (IS_D)", cache.ISD)
	others(EvDataM, "DataM answers an outstanding GETX or raced UPGRADE (IM_D/SM_A)", cache.IMD, cache.SMA)
	others(EvDataC2C, "cache-to-cache data answers the outstanding miss (IS_D/IM_D/SM_A)", cache.ISD, cache.IMD, cache.SMA)
	others(EvUpgAck, "UpgAck answers an outstanding UPGRADE (SM_A)", cache.SMA)
	others(EvPutAck, "PutAck answers the outstanding eviction PUT (EV_A)", cache.EVA)

	// ---- Controller-side events -------------------------------------------

	// Replace: a miss dispatches it on the valid victim of its set. A copy
	// the directory tracks (owned or listed) is put back and waits in EV_A
	// for the PutAck; an Invalid or GI copy is untracked, so its frame is
	// reclaimed silently (a GI victim forfeits its hidden updates, §3.5).
	row(cache.Modified, EvReplace, tr(cache.EVA, ASendPUTM))
	row(cache.Exclusive, EvReplace, tr(cache.EVA, ASendPUTE))
	row(cache.Shared, EvReplace, tr(cache.EVA, ASendPUTS))
	reclaim := tr(cache.Invalid, AReclaim)
	row(cache.Invalid, EvReplace, reclaim)
	if gs {
		row(cache.GS, EvReplace, tr(cache.EVA, ASendPUTS)) // still listed; hidden updates forfeited
	}
	if gi {
		row(cache.GI, EvReplace, reclaim)
	}
	mark("an empty frame is claimed without a dispatch", EvReplace, Absent)
	mark("the L1 is blocking: when a miss picks a victim no other transaction is open",
		EvReplace, cache.ISD, cache.IMD, cache.SMA, cache.EVA)

	// Timeout: the periodic sweep reverts every GI block to I, forfeiting
	// its hidden updates (§3.2); tag and stale data stay in the frame.
	if gi {
		row(cache.GI, EvTimeout, tr(cache.Invalid, ACountGITimeout))
	}
	others(EvTimeout, "the GI sweep dispatches Timeout only on GI blocks", cache.GI)

	// Every remaining hole must be a disabled approximate state.
	for si := 0; si < NumL1States; si++ {
		for ei := 0; ei < NumL1Events; ei++ {
			s, ev := cache.State(si), Event(ei)
			k := L1Key{State: s, Event: ev}
			if t[si][ei] != nil || un[k] != "" {
				continue
			}
			switch {
			case s == cache.GS && !gs:
				un[k] = "the protocol never enters GS"
			case s == cache.GI && !gi:
				un[k] = "the protocol never enters GI"
			default:
				panic("proto: uncovered L1 pair " + L1StateName(s) + "/" + ev.String())
			}
		}
	}
	return t, un
}

// dtr builds an unguarded directory rule; dtrg a guarded one. Next is the
// line's state from the dispatch on: a grant waiting for its L2/DRAM fetch
// is a busy line already in the state the grant makes.
func dtr(next DirState, actions ...DirAction) DirTransition {
	return DirTransition{Next: next, Actions: actions}
}

func dtrg(guards []DirGuard, next DirState, actions ...DirAction) DirTransition {
	return DirTransition{Guards: guards, Next: next, Actions: actions}
}

func dg(guards ...DirGuard) []DirGuard { return guards }

// buildDir assembles the directory table the three base protocols share: GS
// copies ride the sharer list and GI copies are invisible, so the directory
// is plain MESI.
func buildDir() (DirTable, map[DirKey]string) {
	var t DirTable
	row := func(s DirState, ev Event, rules ...DirTransition) {
		t[s][ev-EvGETS] = rules
	}

	row(DirInvalid, EvGETS, dtr(DirOwned, DGrantFreshE))
	row(DirShared, EvGETS, dtr(DirShared, DGrantSharedS))
	row(DirOwned, EvGETS, dtr(DirShared, DAssertNotOwner, DFwdGETSOwner))

	for _, ev := range []Event{EvGETX, EvUPGRADE} {
		row(DirInvalid, ev, dtr(DirOwned, DNoteWrite, DGrantFreshM))
		row(DirShared, ev, dtr(DirOwned, DNoteWrite, DInvAndGrant))
		row(DirOwned, ev, dtr(DirOwned, DNoteWrite, DAssertNotOwner, DFwdGETXOwner))
	}

	// PUTs from states that no longer match are stale (the copy was
	// reclaimed or ownership moved on mid-flight): just acknowledge. A
	// listed sharer's PUT leaves DS only when it drops the last entry.
	for _, ev := range []Event{EvPUTS, EvPUTE, EvPUTM} {
		row(DirInvalid, ev, dtr(DirInvalid, DPutAckFinish))
		row(DirShared, ev, // a PUTM here: evictor downgraded mid-eviction; data already via DataToDir
			dtrg(dg(DGOnlySharer), DirInvalid, DDropSharer, DPutAckFinish),
			dtrg(dg(DGFromListed), DirShared, DDropSharer, DPutAckFinish),
			dtr(DirShared, DPutAckFinish))
	}
	row(DirOwned, EvPUTS, dtr(DirOwned, DPutAckFinish))
	row(DirOwned, EvPUTE,
		dtrg(dg(DGOwnerIsFrom), DirInvalid, DPutAckFinish),
		dtr(DirOwned, DPutAckFinish))
	row(DirOwned, EvPUTM,
		dtrg(dg(DGOwnerIsFrom), DirInvalid, DWriteback, DPutAckFinish),
		dtr(DirOwned, DPutAckFinish))

	// Evict: a fill into a full L2 bank empties a victim line, recalling
	// its cached copies first (the hierarchy is inclusive).
	row(DirInvalid, EvEvict, dtr(DirInvalid, DEvict))
	row(DirShared, EvEvict, dtr(DirInvalid, DInvEvict))
	row(DirOwned, EvEvict, dtr(DirInvalid, DRecallEvict))

	// The directory table is total: every (state, event) pair has a row.
	return t, map[DirKey]string{}
}
