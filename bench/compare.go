package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// -compare A B reads two -out files (one JSON line per run), takes each
// side's median per workload x end-to-end metric, and prints the two
// values, B's relative change in the "worse" direction, the spread of each
// side (interquartile range over median, quartiles as Python's
// statistics.quantiles(n=4) gives them) and the bound. It exits 1 when any
// pair is worse beyond its bound or a run was incorrect.

// readRecords groups untraced runs' metric values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	allCorrect := true
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, false, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		allCorrect = allCorrect && rec.Correct
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, allCorrect, sc.Err()
}

// spreadOf is (Q3 − Q1) / median with the exclusive quartile method; 0 for
// fewer than two samples.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p*float64(len(s)+1) - 1
		if h <= 0 {
			return s[0]
		}
		if h >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(h)
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	m := q(0.5)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / m
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, okA, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathA)
	}
	var b map[string]map[string][]float64
	okB := false
	if err == nil {
		b, okB, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	exit := 0
	if !okA || !okB {
		fmt.Fprintln(w, "FAIL: a run reported correct=false")
		exit = 1
	}
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-16s %-18s missing on one side\n", wl.Name, d.Name)
				exit = 1
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  FAIL"
				exit = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				wl.Name, d.Name, ma, mb, worse*100, spreadOf(xa)*100, spreadOf(xb)*100, d.Bound*100, verdict)
		}
	}
	return exit
}
