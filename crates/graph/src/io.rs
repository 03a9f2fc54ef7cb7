//! SNAP-style edge-list text I/O.
//!
//! Format: one `u v` pair per line, `#`-prefixed comment lines ignored —
//! the format of the SNAP datasets the paper uses. An optional labels file
//! carries one `v label` pair per line.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, GraphError, Label, VertexId, MAX_VERTEX_ID};

/// Errors produced by graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Malformed line with its 1-based line number.
    Parse { line: usize, content: String },
    /// Input parsed but violates a CSR invariant.
    Invalid(GraphError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
            IoError::Invalid(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Invalid(e)
    }
}

/// Reads an edge-list graph from `reader`.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<CsrGraph, IoError> {
    let mut builder = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        // Vertex ids must stay representable at the i32 device boundary
        // (see `csr::MAX_VERTEX_ID`) — a single huge id would also make
        // the builder allocate offsets for every id below it.
        let parse = |tok: Option<&str>| -> Option<VertexId> {
            tok?.parse().ok().filter(|&v| v <= MAX_VERTEX_ID)
        };
        match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => builder.push_edge(u, v),
            _ => {
                return Err(IoError::Parse {
                    line: idx + 1,
                    content: trimmed.to_owned(),
                })
            }
        }
    }
    Ok(builder.build())
}

/// Reads an edge-list graph from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Writes the graph as an edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.arcs() {
        if u < v {
            writeln!(w, "{u} {v}")?;
        }
    }
    Ok(())
}

/// Writes the graph to a file path.
pub fn write_edge_list_file(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_edge_list(g, BufWriter::new(File::create(path)?))
}

/// Reads a labels file (`vertex label` per line) onto an existing graph.
pub fn read_labels<R: BufRead>(g: CsrGraph, reader: R) -> Result<CsrGraph, IoError> {
    let mut labels = vec![0 as Label; g.num_vertices()];
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let v: Option<usize> = it.next().and_then(|t| t.parse().ok());
        let l: Option<Label> = it
            .next()
            .and_then(|t| t.parse().ok())
            .filter(|&l| l <= MAX_VERTEX_ID);
        match (v, l) {
            (Some(v), Some(l)) if v < labels.len() => labels[v] = l,
            _ => {
                return Err(IoError::Parse {
                    line: idx + 1,
                    content: trimmed.to_owned(),
                })
            }
        }
    }
    Ok(g.with_labels(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n0 1\n# mid\n1 2\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(Cursor::new(text)) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn labels_roundtrip() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
        let g = read_labels(g, Cursor::new("0 3\n2 1\n")).unwrap();
        assert_eq!(g.label(0), 3);
        assert_eq!(g.label(1), 0);
        assert_eq!(g.label(2), 1);
    }

    #[test]
    fn labels_reject_out_of_range_vertex() {
        let g = GraphBuilder::new().edges([(0, 1)]).build();
        assert!(read_labels(g, Cursor::new("9 1\n")).is_err());
    }
}
