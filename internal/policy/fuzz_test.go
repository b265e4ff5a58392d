package policy

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParsePolicy asserts two parser invariants over arbitrary input:
// the parser never panics, and printing a parsed file and parsing the
// output again yields the same canonical text (print is a fixpoint of
// parse∘print). Seeds are the shipped example policies plus inline
// grammar corners.
func FuzzParsePolicy(f *testing.F) {
	seeds := []string{
		"",
		"# only a comment\n",
		"cpa llc ldom web: when miss_rate > 300 => waymask = 1",
		"rule r cpa llc ldom web: when miss_rate > 30% for 3 samples => waymask += 2 max 12 cooldown 1ms limit 4 per 10ms",
		"cpa 0 ldom 3: when hit_cnt <= 5 => others waymask = 0x0f, all priority -= 1 min 0",
		"cpa mem ldom batch: when avg_qlat >= 2 => cpa llc ldom web waymask = 0xff00",
		"rule bad cpa llc ldom web when miss_rate > 1 => waymask = 1", // missing ':'
		"cpa llc ldom web: when miss_rate > 0.30 => waymask = 1",
		"cpa llc ldom web: when miss_rate > 184467440737095516150 => waymask = 1", // overflow
		"schedule mem edf",
		"schedule ide pifo-drr\nschedule 0 pifo-fifo\ncpa llc ldom web: when miss_rate > 1 => waymask = 1",
	}
	matches, _ := filepath.Glob(filepath.Join("..", "..", "examples", "policies", "*.pard"))
	for _, m := range matches {
		if src, err := os.ReadFile(m); err == nil {
			seeds = append(seeds, string(src))
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("fuzz.pard", src)
		if err != nil {
			return // rejected input: only the no-panic invariant applies
		}
		printed := file.String()
		again, err := Parse("fuzz.pard", printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\nprinted:\n%s", err, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("print is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, got)
		}
	})
}

// FuzzParseIntent is FuzzParsePolicy's sibling for the intent grammar:
// no panics on arbitrary input, and parse∘print is a fixpoint. Seeds
// are the shipped example intents plus inline corners of the block
// syntax (globs, durations, clause ordering, unterminated blocks).
func FuzzParseIntent(f *testing.F) {
	seeds := []string{
		"intent a { }",
		"intent memtier { servers *; target miss_rate <= 30% on llc; protect ldom svc on cpa*; fabric weight ldom svc = 4; }",
		"intent lat { target lat_p99 <= 1ms; protect ldom 1 on cpa*; }",
		"intent x { servers rack0-*; target avg_qlat <= 12 on mem; protect ldom svc; }",
		"intent caps { fabric rate_cap ldom batch = 100000000; fabric weight ldom 2 = 8; }",
		"intent multi { target miss_rate <= 5% on llc; target avg_qlat <= 12 on mem; protect ldom svc on cpa*; }",
		"intent dur { target lat_p99 <= 500 us; protect ldom svc; }",
		"intent bad { servers ; }",         // missing glob
		"intent open { target x <= 1",      // unterminated block
		"intent semi { protect ldom svc }", // missing ';'
		"intent glob { servers ra*ck-*-9; protect ldom svc; target a != 0; }",
		"intent mix { protect ldom svc; }\ncpa llc ldom web: when miss_rate > 1 => waymask = 1",
	}
	matches, _ := filepath.Glob(filepath.Join("..", "..", "examples", "intents", "*.pard"))
	for _, m := range matches {
		if src, err := os.ReadFile(m); err == nil {
			seeds = append(seeds, string(src))
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("fuzz.pard", src)
		if err != nil {
			return
		}
		printed := file.String()
		again, err := Parse("fuzz.pard", printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\nprinted:\n%s", err, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("print is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, got)
		}
	})
}
