//! Plain-text edge-list I/O.
//!
//! Format: one arc per line, `u v` or `u v w`, whitespace separated;
//! blank lines and lines starting with `#` or `%` are ignored. The node
//! count is `max id + 1` (0 for a file without arcs).

use std::io::{BufRead, Write};

use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// A parsed edge list: arcs plus the inferred node count.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList {
    /// Number of nodes: max id + 1 (0 for a list without arcs).
    pub num_nodes: usize,
    /// Arcs with their weights, `1.0` on unweighted lines (all-or-nothing:
    /// mixing weighted and unweighted lines is a parse error).
    pub arcs: Vec<(NodeId, NodeId, f64)>,
    /// Whether the file carried weights.
    pub weighted: bool,
}

impl EdgeList {
    /// Builds a directed [`Graph`] from the list. Unweighted lines cost 1,
    /// so a file without weights and one whose weights are all `1.0` give
    /// the same, unweighted graph.
    pub fn into_directed(self) -> Result<Graph, GraphError> {
        Graph::directed_weighted(self.num_nodes, &self.arcs)
    }

    /// Builds an undirected [`Graph`], treating each line as an edge.
    pub fn into_undirected(self) -> Result<Graph, GraphError> {
        Graph::undirected_weighted(self.num_nodes, &self.arcs)
    }
}

/// Reads an edge list from `reader`.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<EdgeList, GraphError> {
    let mut arcs = Vec::new();
    let mut weighted: Option<bool> = None;
    let mut max_id: u64 = 0;
    let mut any = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_node = |s: Option<&str>, what: &str| -> Result<NodeId, GraphError> {
            let s = s.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?;
            s.parse::<NodeId>().map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what} `{s}`: {e}"),
            })
        };
        let u = parse_node(parts.next(), "source node")?;
        let v = parse_node(parts.next(), "target node")?;
        let w = match parts.next() {
            Some(ws) => {
                let w = ws.parse::<f64>().map_err(|e| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("bad weight `{ws}`: {e}"),
                })?;
                Some(w)
            }
            None => None,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: "trailing fields after weight".into(),
            });
        }
        let this_weighted = w.is_some();
        match weighted {
            None => weighted = Some(this_weighted),
            Some(prev) if prev != this_weighted => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: "mixed weighted and unweighted lines".into(),
                });
            }
            _ => {}
        }
        max_id = max_id.max(u as u64).max(v as u64);
        any = true;
        arcs.push((u, v, w.unwrap_or(1.0)));
    }
    Ok(EdgeList {
        num_nodes: if any { max_id as usize + 1 } else { 0 },
        arcs,
        weighted: weighted.unwrap_or(false),
    })
}

/// Writes a graph as an edge list (weights included when present).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    for (u, v, w) in g.all_arcs() {
        if g.is_weighted() {
            writeln!(writer, "{u} {v} {w}")?;
        } else {
            writeln!(writer, "{u} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_unweighted_with_comments() {
        let text = "# comment\n0 1\n\n% other comment\n1 2\n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.num_nodes, 3);
        assert!(!el.weighted);
        assert_eq!(el.arcs.len(), 2);
        let g = el.into_directed().unwrap();
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn parse_weighted() {
        let text = "0 1 2.5\n1 0 0.5\n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert!(el.weighted);
        let g = el.into_directed().unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.arcs(0).next().unwrap(), (1, 2.5));
    }

    #[test]
    fn mixed_lines_rejected() {
        let text = "0 1\n1 2 3.0\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("mixed"));
    }

    #[test]
    fn bad_tokens_rejected() {
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("a b\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 2.0 junk\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let el = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(el.num_nodes, 0);
        assert!(el.arcs.is_empty());
    }

    #[test]
    fn roundtrip_weighted() {
        let g = Graph::directed_weighted(3, &[(0, 1, 1.5), (2, 0, 2.0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice())
            .unwrap()
            .into_directed()
            .unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn three_column_file_of_unit_weights_reads_as_the_unweighted_graph() {
        let text = "0 1 1.0\n1 2 1\n2 0 1.0\n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert!(el.weighted, "the file carried weights");
        let unweighted = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let g = el.clone().into_directed().unwrap();
        assert!(!g.is_weighted());
        assert_eq!(g, unweighted);
        let undirected = Graph::undirected(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(el.into_undirected().unwrap(), undirected);
        // Written back, it is a two-column file that reads the same.
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), "0 1\n1 2\n2 0\n");
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(back.into_directed().unwrap(), g);
    }

    #[test]
    fn roundtrip_unweighted_undirected() {
        let g = Graph::undirected(4, &[(0, 1), (2, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        // The written file contains both arc directions; reading it back as
        // directed reproduces the same CSR.
        let back = read_edge_list(buf.as_slice())
            .unwrap()
            .into_directed()
            .unwrap();
        assert_eq!(back, g);
    }
}
