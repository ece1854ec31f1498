package workload

import (
	"fmt"
	"math/rand"

	"ipa"
)

// TATP tuple sizes.
const (
	tatpSubscriberSize = 100
	tatpAccessInfoSize = 60
	tatpFacilitySize   = 60
	tatpForwardingSize = 60

	// Offsets of the fields updated by the TATP write transactions.
	tatpBitOffset     = 8  // UPDATE_SUBSCRIBER_DATA: bit_1 (1 byte)
	tatpDataAOffset   = 9  // UPDATE_SUBSCRIBER_DATA: data_a in special_facility (1 byte)
	tatpVLRLocOffset  = 16 // UPDATE_LOCATION: vlr_location (4 bytes)
	tatpEndTimeOffset = 20 // INSERT_CALL_FORWARDING: end_time (1 byte)
	// tatpSubNbrOffset holds the subscriber's sub_nbr: the non-primary
	// identifier the TATP specification routes most lookups through. The
	// secondary-index variant indexes it (and the forwarding table's
	// owning subscriber at offset 0).
	tatpSubNbrOffset = 24
)

// subNbr derives the (unique) sub_nbr of a subscriber: an injective
// permutation of s_id, so drivers can compute the lookup key without a
// table of their own.
func subNbr(s int64) int64 { return s*7919 + 13 }

// TATPConfig scales the TATP database.
type TATPConfig struct {
	// Subscribers is the number of subscriber rows.
	Subscribers int
	// Seed drives the load-phase generator.
	Seed int64
	// SecondaryLookups switches the driver to the secondary-index variant
	// ("tatpsec"): subscribers are found by sub_nbr through a secondary
	// index instead of by primary key, and call-forwarding rows are
	// additionally indexed by their owning subscriber — so the
	// insert/delete call-forwarding transactions churn a secondary index
	// transactionally.
	SecondaryLookups bool
}

func (c TATPConfig) withDefaults() TATPConfig {
	if c.Subscribers <= 0 {
		c.Subscribers = 40000
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// TATP is the Telecom Application Transaction Processing benchmark driver:
// roughly 80% reads and 20% very small writes (single-byte flags and 4-byte
// locations), the workload where IPA shines.
type TATP struct {
	cfg TATPConfig

	subscribers *ipa.Table
	accessInfo  *ipa.Table
	facilities  *ipa.Table
	forwarding  *ipa.Table

	nextForwardID int64
}

// NewTATP creates a TATP driver.
func NewTATP(cfg TATPConfig) *TATP { return &TATP{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (w *TATP) Name() string {
	if w.cfg.SecondaryLookups {
		return "tatpsec"
	}
	return "tatp"
}

// accessKey builds the composite key (subscriber, ai_type).
func accessKey(sub int64, aiType int) int64 { return sub*4 + int64(aiType) }

// facilityKey builds the composite key (subscriber, sf_type).
func facilityKey(sub int64, sfType int) int64 { return sub*4 + int64(sfType) }

// Load implements Workload.
func (w *TATP) Load(db *ipa.DB) error {
	var err error
	if w.subscribers, err = db.CreateTable("tatp_subscriber", tatpSubscriberSize); err != nil {
		return err
	}
	if w.accessInfo, err = db.CreateTable("tatp_access_info", tatpAccessInfoSize); err != nil {
		return err
	}
	if w.facilities, err = db.CreateTable("tatp_special_facility", tatpFacilitySize); err != nil {
		return err
	}
	if w.forwarding, err = db.CreateTableWithScheme("tatp_call_forwarding", tatpForwardingSize, ipa.Scheme{}); err != nil {
		return err
	}
	if w.cfg.SecondaryLookups {
		// Indexes are created before any row exists, so all maintenance
		// during the measured run is transactional and WAL-covered.
		if _, err = w.subscribers.CreateSecondaryIndex("sub_nbr", ipa.Int64Field(tatpSubNbrOffset)); err != nil {
			return err
		}
		if _, err = w.forwarding.CreateSecondaryIndex("by_sub", ipa.Int64Field(0)); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewSource(w.cfg.Seed))
	ld := NewLoader(db)
	for s := int64(0); s < int64(w.cfg.Subscribers); s++ {
		row := make([]byte, tatpSubscriberSize)
		fill(row, s+5000)
		putInt64(row, 0, s)
		putInt64(row, tatpSubNbrOffset, subNbr(s))
		if err := ld.Insert(w.subscribers, s, row); err != nil {
			return fmt.Errorf("tatp load subscriber: %w", err)
		}
		// 1-4 access_info rows per subscriber.
		nAI := 1 + r.Intn(4)
		for a := 0; a < nAI; a++ {
			ai := make([]byte, tatpAccessInfoSize)
			fill(ai, s*10+int64(a))
			putInt64(ai, 0, s)
			if err := ld.Insert(w.accessInfo, accessKey(s, a), ai); err != nil {
				return fmt.Errorf("tatp load access_info: %w", err)
			}
		}
		// 1-4 special_facility rows per subscriber.
		nSF := 1 + r.Intn(4)
		for f := 0; f < nSF; f++ {
			sf := make([]byte, tatpFacilitySize)
			fill(sf, s*100+int64(f))
			putInt64(sf, 0, s)
			if err := ld.Insert(w.facilities, facilityKey(s, f), sf); err != nil {
				return fmt.Errorf("tatp load special_facility: %w", err)
			}
		}
	}
	return finishLoad(db, ld)
}

// RunOne implements Workload with the standard TATP transaction mix.
func (w *TATP) RunOne(db *ipa.DB, r *rand.Rand) (bool, error) {
	sub := randInt64(r, int64(w.cfg.Subscribers))
	p := r.Intn(100)
	switch {
	case p < 35:
		return w.getSubscriberData(db, sub)
	case p < 45:
		return w.getNewDestination(db, r, sub)
	case p < 80:
		return w.getAccessData(db, r, sub)
	case p < 82:
		return w.updateSubscriberData(db, r, sub)
	case p < 96:
		return w.updateLocation(db, r, sub)
	case p < 98:
		return w.insertCallForwarding(db, r, sub)
	default:
		return w.deleteCallForwarding(db)
	}
}

func (w *TATP) getSubscriberData(db *ipa.DB, sub int64) (bool, error) {
	return attempt(db, func(tx *ipa.Tx) error {
		if w.cfg.SecondaryLookups {
			// The TATP spec routes this lookup through sub_nbr, not the
			// primary key: resolve it via the secondary index.
			rows, err := w.subscribers.GetBySecondary("sub_nbr", subNbr(sub))
			if err != nil {
				return err
			}
			if len(rows) == 0 {
				return ipa.ErrKeyNotFound
			}
			return nil
		}
		_, err := tx.Get(w.subscribers, sub)
		return err
	})
}

func (w *TATP) getNewDestination(db *ipa.DB, r *rand.Rand, sub int64) (bool, error) {
	return attempt(db, func(tx *ipa.Tx) error {
		if _, err := tx.Get(w.facilities, facilityKey(sub, r.Intn(4))); err != nil {
			return err
		}
		// A matching call_forwarding row frequently does not exist; that is
		// a valid empty result, not an error.
		if w.cfg.SecondaryLookups {
			_, _ = w.forwarding.GetBySecondary("by_sub", sub)
			return nil
		}
		_, _ = tx.Get(w.forwarding, sub*8+int64(r.Intn(3)))
		return nil
	})
}

func (w *TATP) getAccessData(db *ipa.DB, r *rand.Rand, sub int64) (bool, error) {
	return attempt(db, func(tx *ipa.Tx) error {
		_, err := tx.Get(w.accessInfo, accessKey(sub, r.Intn(4)))
		return err
	})
}

func (w *TATP) updateSubscriberData(db *ipa.DB, r *rand.Rand, sub int64) (bool, error) {
	return attempt(db, func(tx *ipa.Tx) error {
		// bit_1 of the subscriber: a single-byte update.
		if err := tx.UpdateAt(w.subscribers, sub, tatpBitOffset, []byte{byte(r.Intn(2))}); err != nil {
			return err
		}
		// data_a of one special_facility row: another single byte.
		return tx.UpdateAt(w.facilities, facilityKey(sub, r.Intn(4)), tatpDataAOffset, []byte{byte(r.Intn(256))})
	})
}

func (w *TATP) updateLocation(db *ipa.DB, r *rand.Rand, sub int64) (bool, error) {
	return attempt(db, func(tx *ipa.Tx) error {
		loc := make([]byte, 4)
		v := uint32(r.Int63())
		loc[0], loc[1], loc[2], loc[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return tx.UpdateAt(w.subscribers, sub, tatpVLRLocOffset, loc)
	})
}

func (w *TATP) insertCallForwarding(db *ipa.DB, r *rand.Rand, sub int64) (bool, error) {
	w.nextForwardID++
	key := w.nextForwardID
	return attempt(db, func(tx *ipa.Tx) error {
		row := make([]byte, tatpForwardingSize)
		fill(row, key)
		putInt64(row, 0, sub)
		row[tatpEndTimeOffset] = byte(r.Intn(24))
		return tx.Insert(w.forwarding, key, row)
	})
}

func (w *TATP) deleteCallForwarding(db *ipa.DB) (bool, error) {
	// Deletes are rare and target recently inserted rows; deleting a
	// non-existent row is an acceptable no-op per the TATP specification.
	if w.nextForwardID == 0 {
		return true, nil
	}
	key := w.nextForwardID
	deleted, err := attempt(db, func(tx *ipa.Tx) error {
		return tx.Delete(w.forwarding, key)
	})
	if err != nil {
		return false, err
	}
	if deleted {
		w.nextForwardID--
	}
	return true, nil
}
