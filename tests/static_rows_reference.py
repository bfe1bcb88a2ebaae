"""Reference oracle for the static-graph baseline's input rows: the
`trainer._static_rows` that `dmf.forward(..., static_adj=...)` replaced,
kept so that the rows the forward makes can be checked against it. The
frozen graph, now a chain of edges, is made the dense n × n adjacency it
was, and the dense normalization and product are the graph oracle's."""

import numpy as np

from evacnet import dataio

import graphs_reference


def _static_rows(static_full, windows):
    """Each window's static-graph product Ã_w·[temporal ‖ spatial],
    (l, n_w, F) in float64, Ã_w the normalized block of the frozen graph
    over its predicted detectors; None when the variant has no static
    graph."""
    if static_full is None:
        return None
    full = graphs_reference.dense(windows[0].table.shape[2], static_full["i"],
                                  static_full["j"], static_full["w"])
    return [graphs_reference.gcn_normalize(full[np.ix_(w.det_indices,
                                                      w.det_indices)])
            @ dataio.gather_inputs([w], ("identity",))[:, 0]
            for w in windows]
