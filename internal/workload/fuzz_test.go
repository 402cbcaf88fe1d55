package workload

import "testing"

// FuzzParse feeds arbitrary text to the instance parser.  Whatever it
// accepts must round-trip: Marshal renders text that parses back to the same
// instance, and rendering that again gives the same text.  The seed corpus
// (below and under testdata/fuzz/FuzzParse) runs as a plain test.
func FuzzParse(f *testing.F) {
	f.Add("pfcache-instance v1\nk 4\nf 4\ndisks 2\ndisk 0 0\ndisk 5 1\ninitial 0 1 2 3\nseq 0 1 2 3 3 4\nseq 0 3 3 1\n")
	f.Add("pfcache-instance v1\n# comment\nk 2\nf 3\nseq 1 2 3 1 2 3\n")
	f.Add(Marshal(Instance(Uniform(40, 7, 1), 3, 2, 3, AssignStripe, 0).WithInitialCache(0, 6)))
	f.Add("pfcache-instance v1\nk 1\nf 1\ndisks 2\nseq 0\n")
	f.Fuzz(func(t *testing.T, data string) {
		in, err := ParseString(data)
		if err != nil {
			return
		}
		text := Marshal(in)
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("accepted %q, but its rendering %q does not parse: %v", data, text, err)
		}
		if back.CanonicalKey() != in.CanonicalKey() {
			t.Fatalf("round trip of %q changed the instance: %s, then %s", data, in.CanonicalKey(), back.CanonicalKey())
		}
		if again := Marshal(back); again != text {
			t.Fatalf("rendering is not stable: %q, then %q", text, again)
		}
	})
}
