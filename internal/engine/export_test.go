package engine

import "aim/internal/sqlparser"

// ExecOneShot plans stmt as written, outside the memo — prepare-then-choose
// with nothing kept — and runs it: the reference FuzzPreparedEqualsOneShot
// holds ExecStmt to.
func (db *DB) ExecOneShot(stmt sqlparser.Statement) (*Result, error) {
	return db.exec("", stmt, nil, nil)
}
