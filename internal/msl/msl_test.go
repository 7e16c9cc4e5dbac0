package msl

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tuple"
)

func TestWiFiThreeLiner(t *testing.T) {
	src := `
# the paper's §7.4 query, three lines of MSL
query frames as topk(3, 0) from sensors where key = "aa:bb:cc:dd:ee:ff" window time 1s slide 1s
query loud as trilat() from frames window time 1s slide 1s
query trail as union() from loud window time 5s slide 5s
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Statements) != 3 {
		t.Fatalf("statements = %d", len(p.Statements))
	}
	f := p.Statements[0]
	if f.Name != "frames" || f.Op != "topk" || len(f.Args) != 2 || f.Args[0] != "3" {
		t.Fatalf("frames = %+v", f)
	}
	if f.FilterKey != "aa:bb:cc:dd:ee:ff" {
		t.Fatalf("filter = %q", f.FilterKey)
	}
	if f.Source != SourceSensors || f.Window.Slide != time.Second {
		t.Fatalf("frames = %+v", f)
	}
	if p.Statements[1].Source != "frames" || p.Statements[2].Source != "loud" {
		t.Fatal("chaining broken")
	}
}

func TestTupleWindowAndKnobs(t *testing.T) {
	p, err := Parse(`query q as avg(1) from sensors window tuples 20 slide 10 trees 4 bf 16`)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Statements[0]
	if st.Window.Kind != tuple.TupleWindow || st.Window.RangeN != 20 || st.Window.SlideN != 10 {
		t.Fatalf("window = %+v", st.Window)
	}
	if st.Trees != 4 || st.BF != 16 {
		t.Fatalf("knobs = %+v", st)
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	p, err := Parse(`
-- sum of load
query a as sum(0) from sensors window time 1s slide 1s;
query b as max(0) from sensors window time 2s slide 1s
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Statements) != 2 {
		t.Fatalf("statements = %d", len(p.Statements))
	}
	if p.Statements[1].Window.Range != 2*time.Second {
		t.Fatal("sliding window range lost")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"", "empty program"},
		{"query q as bogus() from sensors window time 1s slide 1s", "unknown operator"},
		{"query q as sum() from sensors", "no window clause"},
		{"query q as sum() from nowhere window time 1s slide 1s", "unknown stream"},
		{`query q as sum() from sensors window time 1s slide 1s
		  query q as sum() from sensors window time 1s slide 1s`, "duplicate query name"},
		{"query q as sum() from sensors window time xx slide 1s", "bad range duration"},
		{"query q as sum() from sensors where key = foo window time 1s slide 1s", "quoted string"},
		{`query q as sum() from sensors window time 1s slide 1s banana 3`, "unexpected clause"},
		{`query q as sum() from sensors window monthly 1 slide 1`, "'time' or 'tuples'"},
		{`query q as sum() from sensors window time -1s slide 1s`, "positive range"},
		{`query q as sum() from sensors window time 5s slide 2s`, "whole multiple of its slide"},
		{`query q as sum("unterminated from sensors window time 1s slide 1s`, "unterminated string"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Fatalf("no error for %q", c.src)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("error %q does not mention %q", err, c.want)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	p, err := Parse(`QUERY Q AS SUM(0) FROM SENSORS WINDOW TIME 1s SLIDE 1s`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Statements[0].Op != "sum" || p.Statements[0].Source != SourceSensors {
		t.Fatalf("stmt = %+v", p.Statements[0])
	}
}
