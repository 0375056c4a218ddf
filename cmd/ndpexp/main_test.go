package main

import (
	"reflect"
	"strings"
	"testing"

	"ndpage"
)

func figureNames(figs []figure) []string {
	names := make([]string, len(figs))
	for i, f := range figs {
		names[i] = f.name
	}
	return names
}

func TestSelectFigures(t *testing.T) {
	e := &ndpage.Experiments{}
	for _, tc := range []struct {
		arg  string
		want []string
	}{
		{"all", []string{"fig4", "fig5", "fig6", "fig7", "fig8", "motivation", "pwc", "fig12", "fig13", "fig14", "ablation"}},
		// Report order, duplicates dropped, extras selectable by name.
		{"fig12, fig4,mlp-sensitivity,fig4", []string{"fig4", "fig12", "mlp-sensitivity"}},
		{"fig4,fig5,", []string{"fig4", "fig5"}},
	} {
		figs, err := selectFigures(tc.arg, e)
		if err != nil {
			t.Errorf("-figs %q: %v", tc.arg, err)
			continue
		}
		if got := figureNames(figs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-figs %q selected %v, want %v", tc.arg, got, tc.want)
		}
	}
}

// TestSelectFiguresRejectsUnknown: a typo fails naming the bad entry and
// the valid names, instead of silently running nothing.
func TestSelectFiguresRejectsUnknown(t *testing.T) {
	e := &ndpage.Experiments{}
	for _, arg := range []string{"fgi4", "fig4,fgi5", "", ","} {
		figs, err := selectFigures(arg, e)
		if err == nil {
			t.Errorf("-figs %q accepted: %v", arg, figureNames(figs))
			continue
		}
		for _, want := range []string{"valid: all, fig4,", "oversubscription"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-figs %q: error %q does not list %q", arg, err, want)
			}
		}
	}
	_, err := selectFigures("fig4,fgi5", e)
	if err == nil || !strings.Contains(err.Error(), "unknown figure fgi5 ") {
		t.Errorf("error %v does not name the unknown entry", err)
	}
}
