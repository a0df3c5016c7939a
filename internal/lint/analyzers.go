package lint

// All returns the full pathalgebravet analyzer suite, in reporting
// order.
func All() []*Analyzer {
	return []*Analyzer{
		BudgetCharge,
		DetOrder,
		ErrSentinel,
		HotPathAlloc,
		RecoverGuard,
		SpanEnd,
	}
}
