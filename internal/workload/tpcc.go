package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"ipa"
)

// TPC-C tuple sizes (bytes). The real schema has wide rows; the driver uses
// representative fixed sizes so that tuples-per-page ratios stay realistic
// while keeping the load phase small enough for the simulated device.
const (
	tpccWarehouseSize = 100
	tpccDistrictSize  = 100
	tpccCustomerSize  = 300
	tpccItemSize      = 80
	tpccStockSize     = 120
	tpccOrderSize     = 60
	tpccOrderLineSize = 70
	tpccHistSize      = 50

	// Offsets of the small fields updated by New-Order and Payment.
	tpccYTDOffset      = 8  // warehouse/district year-to-date (8 bytes)
	tpccNextOIDOffset  = 16 // district next order id (8 bytes)
	tpccBalanceOffset  = 8  // customer balance (8 bytes)
	tpccQuantityOffset = 8  // stock quantity (4 bytes)
	tpccStockYTDOffset = 16 // stock ytd (8 bytes)

	// tpccInitialAmount keeps monetary counters away from zero so the
	// typical update touches only the low-order bytes (see the TPC-B
	// driver for the rationale).
	tpccInitialAmount = int64(1234567890123)

	// tpccDistrictsPerWarehouse is the TPC-C value.
	tpccDistrictsPerWarehouse = 10
)

// TPCCConfig scales the TPC-C database.
type TPCCConfig struct {
	// Warehouses is the scale factor (default 2).
	Warehouses int
	// CustomersPerDistrict defaults to 300 (scaled down from 3000).
	CustomersPerDistrict int
	// Items defaults to 2000 (scaled down from 100000).
	Items int
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Warehouses <= 0 {
		c.Warehouses = 2
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 300
	}
	if c.Items <= 0 {
		c.Items = 2000
	}
	return c
}

// TPCC is a TPC-C subset driver executing the New-Order, Payment and
// Order-Status transactions (the bulk of the standard mix).
type TPCC struct {
	cfg TPCCConfig

	warehouses *ipa.Table
	districts  *ipa.Table
	customers  *ipa.Table
	items      *ipa.Table
	stock      *ipa.Table
	orders     *ipa.Table
	orderLines *ipa.Table
	history    *ipa.Table

	nextOrderID     int64
	nextOrderLineID int64
	nextHistID      int64
}

// NewTPCC creates a TPC-C driver.
func NewTPCC(cfg TPCCConfig) *TPCC { return &TPCC{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (w *TPCC) Name() string { return "tpcc" }

func (w *TPCC) districtKey(wh, d int64) int64 { return wh*100 + d }
func (w *TPCC) customerKey(wh, d, c int64) int64 {
	return (wh*100+d)*10000 + c
}
func (w *TPCC) stockKey(wh, item int64) int64 { return wh*1000000 + item }

// Load implements Workload.
func (w *TPCC) Load(db *ipa.DB) error {
	var err error
	if w.warehouses, err = db.CreateTable("tpcc_warehouse", tpccWarehouseSize); err != nil {
		return err
	}
	if w.districts, err = db.CreateTable("tpcc_district", tpccDistrictSize); err != nil {
		return err
	}
	if w.customers, err = db.CreateTable("tpcc_customer", tpccCustomerSize); err != nil {
		return err
	}
	if w.items, err = db.CreateTable("tpcc_item", tpccItemSize); err != nil {
		return err
	}
	if w.stock, err = db.CreateTable("tpcc_stock", tpccStockSize); err != nil {
		return err
	}
	// Insert-only tables never profit from IPA; keep them in a plain
	// region (selective IPA via NoFTL regions).
	if w.orders, err = db.CreateTableWithScheme("tpcc_orders", tpccOrderSize, ipa.Scheme{}); err != nil {
		return err
	}
	if w.orderLines, err = db.CreateTableWithScheme("tpcc_order_line", tpccOrderLineSize, ipa.Scheme{}); err != nil {
		return err
	}
	if w.history, err = db.CreateTableWithScheme("tpcc_history", tpccHistSize, ipa.Scheme{}); err != nil {
		return err
	}

	c := w.cfg
	ld := NewLoader(db)
	for i := int64(0); i < int64(c.Items); i++ {
		row := make([]byte, tpccItemSize)
		fill(row, i+9000)
		putInt64(row, 0, i)
		if err := ld.Insert(w.items, i, row); err != nil {
			return fmt.Errorf("tpcc load items: %w", err)
		}
	}
	for wh := int64(0); wh < int64(c.Warehouses); wh++ {
		row := make([]byte, tpccWarehouseSize)
		fill(row, wh+9100)
		putInt64(row, 0, wh)
		putInt64(row, tpccYTDOffset, tpccInitialAmount)
		if err := ld.Insert(w.warehouses, wh, row); err != nil {
			return fmt.Errorf("tpcc load warehouse: %w", err)
		}
		for d := int64(0); d < tpccDistrictsPerWarehouse; d++ {
			drow := make([]byte, tpccDistrictSize)
			fill(drow, wh*100+d+9200)
			putInt64(drow, 0, w.districtKey(wh, d))
			putInt64(drow, tpccYTDOffset, tpccInitialAmount)
			putInt64(drow, tpccNextOIDOffset, 1)
			if err := ld.Insert(w.districts, w.districtKey(wh, d), drow); err != nil {
				return fmt.Errorf("tpcc load district: %w", err)
			}
			for cu := int64(0); cu < int64(c.CustomersPerDistrict); cu++ {
				crow := make([]byte, tpccCustomerSize)
				fill(crow, wh*1000000+d*10000+cu)
				putInt64(crow, 0, w.customerKey(wh, d, cu))
				putInt64(crow, tpccBalanceOffset, tpccInitialAmount)
				if err := ld.Insert(w.customers, w.customerKey(wh, d, cu), crow); err != nil {
					return fmt.Errorf("tpcc load customer: %w", err)
				}
			}
		}
		for i := int64(0); i < int64(c.Items); i++ {
			srow := make([]byte, tpccStockSize)
			fill(srow, wh*10000000+i)
			putInt64(srow, 0, w.stockKey(wh, i))
			putInt64(srow, tpccQuantityOffset, 50)
			putInt64(srow, tpccStockYTDOffset, tpccInitialAmount)
			if err := ld.Insert(w.stock, w.stockKey(wh, i), srow); err != nil {
				return fmt.Errorf("tpcc load stock: %w", err)
			}
		}
	}
	return finishLoad(db, ld)
}

// RunOne implements Workload with the (reduced) standard mix: 45% New-Order,
// 45% Payment, 10% Order-Status.
func (w *TPCC) RunOne(db *ipa.DB, r *rand.Rand) (bool, error) {
	p := r.Intn(100)
	switch {
	case p < 45:
		return w.newOrder(db, r)
	case p < 90:
		return w.payment(db, r)
	default:
		return w.orderStatus(db, r)
	}
}

// newOrder reads the customer and district, increments the district's next
// order id, updates the quantity and ytd of 5-15 stock rows and inserts the
// order and its order lines.
func (w *TPCC) newOrder(db *ipa.DB, r *rand.Rand) (bool, error) {
	c := w.cfg
	wh := randInt64(r, int64(c.Warehouses))
	d := randInt64(r, tpccDistrictsPerWarehouse)
	cust := nonUniform(r, 1023, 0, int64(c.CustomersPerDistrict)-1)
	nItems := 5 + r.Intn(11)

	return attempt(db, func(tx *ipa.Tx) error {
		if _, err := tx.Get(w.customers, w.customerKey(wh, d, cust)); err != nil {
			return err
		}
		if _, err := tx.Get(w.warehouses, wh); err != nil {
			return err
		}
		drow, err := tx.Get(w.districts, w.districtKey(wh, d))
		if err != nil {
			return err
		}
		nextOID := getInt64(drow, tpccNextOIDOffset)
		if err := tx.UpdateAt(w.districts, w.districtKey(wh, d), tpccNextOIDOffset, int64Bytes(nextOID+1)); err != nil {
			return err
		}

		w.nextOrderID++
		orow := make([]byte, tpccOrderSize)
		fill(orow, w.nextOrderID)
		putInt64(orow, 0, w.nextOrderID)
		putInt64(orow, 8, w.customerKey(wh, d, cust))
		if err := tx.Insert(w.orders, w.nextOrderID, orow); err != nil {
			return err
		}

		for i := 0; i < nItems; i++ {
			item := nonUniform(r, 8191, 0, int64(c.Items)-1)
			if _, err := tx.Get(w.items, item); err != nil {
				return err
			}
			skey := w.stockKey(wh, item)
			srow, err := tx.Get(w.stock, skey)
			if err != nil {
				return err
			}
			qty := getInt64(srow, tpccQuantityOffset)
			ordered := int64(1 + r.Intn(10))
			newQty := qty - ordered
			if newQty < 10 {
				newQty += 91
			}
			if err := tx.UpdateAt(w.stock, skey, tpccQuantityOffset, int64Bytes(newQty)); err != nil {
				return err
			}
			if err := tx.UpdateAt(w.stock, skey, tpccStockYTDOffset,
				int64Bytes(getInt64(srow, tpccStockYTDOffset)+ordered)); err != nil {
				return err
			}

			w.nextOrderLineID++
			ol := make([]byte, tpccOrderLineSize)
			fill(ol, w.nextOrderLineID)
			putInt64(ol, 0, w.nextOrderLineID)
			putInt64(ol, 8, w.nextOrderID)
			putInt64(ol, 16, item)
			if err := tx.Insert(w.orderLines, w.nextOrderLineID, ol); err != nil {
				return err
			}
		}
		return nil
	})
}

// payment updates the warehouse and district year-to-date totals and the
// customer balance, and inserts a history row.
func (w *TPCC) payment(db *ipa.DB, r *rand.Rand) (bool, error) {
	c := w.cfg
	wh := randInt64(r, int64(c.Warehouses))
	d := randInt64(r, tpccDistrictsPerWarehouse)
	cust := nonUniform(r, 1023, 0, int64(c.CustomersPerDistrict)-1)
	amount := int64(100 + r.Intn(500000))

	return attempt(db, func(tx *ipa.Tx) error {
		wrow, err := tx.Get(w.warehouses, wh)
		if err != nil {
			return err
		}
		if err := tx.UpdateAt(w.warehouses, wh, tpccYTDOffset,
			int64Bytes(getInt64(wrow, tpccYTDOffset)+amount)); err != nil {
			return err
		}
		dkey := w.districtKey(wh, d)
		drow, err := tx.Get(w.districts, dkey)
		if err != nil {
			return err
		}
		if err := tx.UpdateAt(w.districts, dkey, tpccYTDOffset,
			int64Bytes(getInt64(drow, tpccYTDOffset)+amount)); err != nil {
			return err
		}
		ckey := w.customerKey(wh, d, cust)
		crow, err := tx.Get(w.customers, ckey)
		if err != nil {
			return err
		}
		if err := tx.UpdateAt(w.customers, ckey, tpccBalanceOffset,
			int64Bytes(getInt64(crow, tpccBalanceOffset)-amount)); err != nil {
			return err
		}
		w.nextHistID++
		hrow := make([]byte, tpccHistSize)
		fill(hrow, w.nextHistID)
		putInt64(hrow, 0, w.nextHistID)
		putInt64(hrow, 8, ckey)
		putInt64(hrow, 16, amount)
		return tx.Insert(w.history, w.nextHistID, hrow)
	})
}

// orderStatus reads a customer and its most recent order and order lines.
func (w *TPCC) orderStatus(db *ipa.DB, r *rand.Rand) (bool, error) {
	c := w.cfg
	wh := randInt64(r, int64(c.Warehouses))
	d := randInt64(r, tpccDistrictsPerWarehouse)
	cust := nonUniform(r, 1023, 0, int64(c.CustomersPerDistrict)-1)

	return attempt(db, func(tx *ipa.Tx) error {
		if _, err := tx.Get(w.customers, w.customerKey(wh, d, cust)); err != nil {
			return err
		}
		if w.nextOrderID > 0 {
			oid := 1 + randInt64(r, w.nextOrderID)
			// The order may belong to any customer; this is only a read.
			if _, err := tx.Get(w.orders, oid); err != nil && !errors.Is(err, ipa.ErrKeyNotFound) {
				return err
			}
		}
		return nil
	})
}
