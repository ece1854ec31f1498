package ipa

import "time"

// DelayLogFlushes makes the flush leader of db's log really wait d per WAL
// flush batch, after the fault plan's flush point and the virtual latency
// Open installed: while it waits, concurrently arriving commits queue up
// and ride the next batch, so group-commit batching shows under real
// goroutines. Call it before the goroutines start.
func DelayLogFlushes(db *DB, d time.Duration) {
	db.log.SetFlushHook(func(bytes int) error {
		if err := db.logDevice(bytes); err != nil {
			return err
		}
		time.Sleep(d)
		return nil
	})
}
