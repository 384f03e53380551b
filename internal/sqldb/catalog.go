package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Column is one table column.
type Column struct {
	Name string
	Type string // INTEGER, REAL, TEXT, BLOB (affinity only)
}

// Table is a table's schema entry.
type Table struct {
	Name    string
	Root    uint32
	Columns []Column
	// RowidCol is the index of an INTEGER PRIMARY KEY column aliasing
	// the rowid, or -1.
	RowidCol int
	catRowid int64
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Index is a secondary index's schema entry.
type Index struct {
	Name     string
	Table    string
	Root     uint32
	Cols     []string
	catRowid int64
}

// Catalog is the schema: a cache over the catalog B+tree (the
// sqlite_master equivalent rooted at a fixed page).
type Catalog struct {
	p       *Pager
	tree    *Btree
	tables  map[string]*Table
	indexes map[string]*Index
	// byTable holds each table's indexes in name order, keyed like tables.
	byTable map[string][]*Index
}

// catalog record layout: (kind TEXT, name TEXT, table TEXT, root INT,
// definition TEXT). A table's definition is its CREATE TABLE column list,
// an index's its column names.
func tableDef(t *Table) string {
	parts := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		parts[i] = c.Name + " " + c.Type
		if i == t.RowidCol {
			parts[i] += " PRIMARY KEY"
		}
	}
	return strings.Join(parts, ", ")
}

// cloneColumn returns col with names of its own.
func cloneColumn(col Column) Column {
	return Column{Name: strings.Clone(col.Name), Type: strings.Clone(col.Type)}
}

// LoadCatalog reads the schema from the catalog tree.
func LoadCatalog(p *Pager) (*Catalog, error) {
	c := &Catalog{
		p:       p,
		tree:    NewTableTree(p, p.CatalogRoot()),
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
		byTable: make(map[string][]*Index),
	}
	var err error
	c.tree.ScanTable(func(rowid int64, record []byte) bool {
		var vals []Value
		vals, err = DecodeRecord(record)
		if err != nil {
			return false
		}
		if len(vals) != 5 {
			err = fmt.Errorf("sqldb: malformed catalog record")
			return false
		}
		switch vals[0].S {
		case "table":
			// tableDef wrote the column list CREATE TABLE parses.
			var stmt any
			stmt, err = Parse("CREATE TABLE t (" + vals[4].S + ")")
			def, ok := stmt.(*CreateTableStmt)
			if !ok {
				err = fmt.Errorf("sqldb: malformed definition of table %s: %v", vals[1].S, err)
				return false
			}
			c.tables[strings.ToLower(vals[1].S)] = &Table{
				Name: vals[1].S, Root: uint32(vals[3].I),
				Columns: def.Cols, RowidCol: def.RowidCol, catRowid: rowid,
			}
		case "index":
			c.addIndex(&Index{
				Name: vals[1].S, Table: strings.ToLower(vals[2].S), Root: uint32(vals[3].I),
				Cols: strings.Split(vals[4].S, ","), catRowid: rowid,
			})
		default:
			err = fmt.Errorf("sqldb: unknown catalog entry kind %q", vals[0].S)
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) *Table { return c.tables[strings.ToLower(name)] }

// Index looks up an index by name.
func (c *Catalog) Index(name string) *Index { return c.indexes[strings.ToLower(name)] }

// TableIndexes returns all indexes on a table, in name order (map
// iteration order must not leak into page layouts — runs have to be
// deterministic for the experiments). The slice is the catalog's own:
// callers only range over it.
func (c *Catalog) TableIndexes(table string) []*Index {
	return c.byTable[strings.ToLower(table)]
}

// addIndex enters idx into the schema cache.
func (c *Catalog) addIndex(idx *Index) {
	c.indexes[strings.ToLower(idx.Name)] = idx
	list := c.byTable[idx.Table]
	at := sort.Search(len(list), func(i int) bool { return list[i].Name >= idx.Name })
	c.byTable[idx.Table] = slices.Insert(list, at, idx)
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// nextCatRowid returns a fresh catalog rowid.
func (c *Catalog) nextCatRowid() int64 { return c.tree.MaxRowid() + 1 }

// CreateTable adds a table to the schema and allocates its tree. The
// schema keeps copies of the names: a caller's strings may view a
// statement's text, which dies with its Exec.
func (c *Catalog) CreateTable(name string, cols []Column, rowidCol int) (*Table, error) {
	if c.Table(name) != nil {
		return nil, fmt.Errorf("sqldb: table %s already exists", name)
	}
	name, cols = strings.Clone(name), slices.Clone(cols)
	for i := range cols {
		cols[i] = cloneColumn(cols[i])
	}
	t := &Table{Name: name, Root: CreateTableTree(c.p), Columns: cols, RowidCol: rowidCol}
	t.catRowid = c.nextCatRowid()
	rec := EncodeRecord([]Value{Text("table"), Text(name), Text(name), Int(int64(t.Root)), Text(tableDef(t))})
	if err := c.tree.InsertRow(t.catRowid, rec); err != nil {
		return nil, err
	}
	c.tables[strings.ToLower(name)] = t
	return t, nil
}

// CreateIndex adds an index to the schema and allocates its tree; the
// schema keeps copies of the names, as CreateTable's does.
func (c *Catalog) CreateIndex(name, table string, cols []string) (*Index, error) {
	if c.Index(name) != nil {
		return nil, fmt.Errorf("sqldb: index %s already exists", name)
	}
	t := c.Table(table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: no such table %s", table)
	}
	for _, col := range cols {
		if t.ColIndex(col) < 0 {
			return nil, fmt.Errorf("sqldb: no such column %s.%s", table, col)
		}
	}
	name, table, cols = strings.Clone(name), strings.Clone(table), slices.Clone(cols)
	for i := range cols {
		cols[i] = strings.Clone(cols[i])
	}
	idx := &Index{Name: name, Table: strings.ToLower(table), Root: CreateIndexTree(c.p), Cols: cols}
	idx.catRowid = c.nextCatRowid()
	rec := EncodeRecord([]Value{Text("index"), Text(name), Text(table), Int(int64(idx.Root)), Text(strings.Join(cols, ","))})
	if err := c.tree.InsertRow(idx.catRowid, rec); err != nil {
		return nil, err
	}
	c.addIndex(idx)
	return idx, nil
}

// AddColumn implements ALTER TABLE ADD COLUMN: schema-only, existing rows
// read the new column as NULL.
func (c *Catalog) AddColumn(table string, col Column) error {
	t := c.Table(table)
	if t == nil {
		return fmt.Errorf("sqldb: no such table %s", table)
	}
	if t.ColIndex(col.Name) >= 0 {
		return fmt.Errorf("sqldb: column %s already exists", col.Name)
	}
	t.Columns = append(t.Columns, cloneColumn(col))
	c.tree.DeleteRow(t.catRowid)
	rec := EncodeRecord([]Value{Text("table"), Text(t.Name), Text(t.Name), Int(int64(t.Root)), Text(tableDef(t))})
	return c.tree.InsertRow(t.catRowid, rec)
}
