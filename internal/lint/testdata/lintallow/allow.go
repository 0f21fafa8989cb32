package fetch

import "time"

// now carries a lint:allow with no reason: it suppresses nothing and is
// itself a finding. (Asserted directly by TestAllowRequiresReason — this
// fixture deliberately has no want markers.)
func now() time.Time {
	//lint:allow clockcheck
	return time.Now()
}
