package store

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"circuitql/internal/core"
	"circuitql/internal/query"
	"circuitql/internal/workload"
)

// servedShapes are the shapes the benchmark's four workloads serve:
// catalog template · tuples per relation.
var servedShapes = []struct {
	name, src string
	tuples    int
}{
	{"triangle16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
	{"triangle12", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 12},
	{"cycle4_8", "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", 8},
	{"pair4", "Q(A,B) :- R(A,B), S(A,B)", 4},
	{"path2_4", "Q(A,B,C) :- R(A,B), S(B,C)", 4},
	{"triangle4", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 4},
}

// servedSalt is the loose extra bound of a salted request: same
// database, same plan size, another fingerprint.
const servedSalt = "R <= 40"

// TestGoldenServedPlans pins the .plan bytes of the served shapes × data
// seeds 1 and 2 × {plain, salted}, each compiled the way the daemon
// compiles a request — constraints derived from the seeded database, the
// salt appended, the pair canonicalized, core.CompileQueryCtx — by their
// SHA-256 in testdata/served_plans.sha256. TestGoldenPlanFormat holds the
// format; this holds what the compiler puts in it, so a change that is
// meant to leave every plan alone (a faster builder, a faster LP) is
// held to exactly that. Only a new plan generation regenerates the file:
//
//	go test ./internal/store -run TestGoldenServedPlans -update
func TestGoldenServedPlans(t *testing.T) {
	var got strings.Builder
	for _, s := range servedShapes {
		q, err := query.Parse(s.src)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			derived, err := query.DeriveDC(q, workload.ForQuery(q, seed, s.tuples))
			if err != nil {
				t.Fatalf("%s seed %d: derive: %v", s.name, seed, err)
			}
			salt, err := query.ParseDC(q, servedSalt)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				label string
				dcs   query.DCSet
			}{
				{"plain", derived},
				{"salted", append(append(query.DCSet(nil), derived...), salt...)},
			} {
				canon, err := query.Canonicalize(q, v.dcs)
				if err != nil {
					t.Fatalf("%s seed %d %s: canonicalize: %v", s.name, seed, v.label, err)
				}
				compiled, err := core.CompileQueryCtx(context.Background(), canon.Query, canon.DCs)
				if err != nil {
					t.Fatalf("%s seed %d %s: compile: %v", s.name, seed, v.label, err)
				}
				data, err := EncodePlan(FromCompiled(canon, compiled))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%x  %s/%d/%s\n", sha256.Sum256(data), s.name, seed, v.label)
			}
		}
	}

	path := filepath.Join("testdata", "served_plans.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s — only a new plan generation should", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("served-plan hashes missing (regenerate with -update): %v", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d served plans, %s pins %d", len(gotLines), path, len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("served plan changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
