// Package unknownallow is a fixture for the unknown-rule allow
// diagnostic: an //iocheck:allow naming a rule that is not in the suite
// (here one that was deleted) suppresses nothing and is itself a finding.
package unknownallow

type span struct{ instant bool }

func begin(on bool) *span {
	if !on {
		return nil
	}
	return &span{}
}

func instant() *span {
	sp := begin(true)
	//iocheck:allow nilflow begin returns nil only when tracing is off
	sp.instant = true
	return sp
}
