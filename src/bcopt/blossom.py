# This module ports max_weight_matching from NetworkX 3.6.1
# (networkx/algorithms/matching.py), which carries this notice:
#
# NetworkX is distributed with the 3-clause BSD license.
#
#    Copyright (c) 2004-2025, NetworkX Developers
#    Aric Hagberg <hagberg@lanl.gov>
#    Dan Schult <dschult@colgate.edu>
#    Pieter Swart <swart@lanl.gov>
#    All rights reserved.
#
#    Redistribution and use in source and binary forms, with or without
#    modification, are permitted provided that the following conditions are
#    met:
#
#      * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#      * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#      * Neither the name of the NetworkX Developers nor the names of its
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
#    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Maximum-weight matching on positive integer weights: the primal-dual
blossom algorithm of Galil ("Efficient Algorithms for Finding Maximum
Matching in Graphs", ACM Computing Surveys, 1986), ported from
networkx 3.6.1's ``max_weight_matching`` with ``maxcardinality=False``.

The port keeps every iteration order of the original: neighbours in
edge-list order, the insertion orders of ``blossomparent`` and
``blossomdual``, the leaf order of a blossom and LIFO queue pops.  So on
a graph built by ``add_edge`` in the same edge order, it returns the
very matching networkx returns, not just one of equal weight.  What
changed is the data.  A blossom is an int id: n, n + 1, … in creation
order, never reused within a solve, so ``b >= n`` tells a blossom from
a vertex.  ``label``, ``labeledge``, ``bestedge``, ``blossomparent``
and ``blossombase`` are lists indexed by vertex or blossom id, as are
each blossom's ``childs``, ``edges`` and ``mybestedges``; an absent
networkx key is a None entry, and a stage reset refills the lists.
``blossomdual`` is a dict of the live blossoms, whose key order is
creation order, so delta3 walks the vertices in ascending order and
then its keys: the key order of networkx's ``blossomparent``.  Plain
per-vertex tables hold twice each edge weight in place of networkx's
graph views, ``dualvar`` is a list, the edge slack is computed inline,
and ``allowedge`` holds the int ``v * n + w`` for the edge (v, w)
rather than a tuple.  The neighbour scan keeps the slack of its
blossom's ``bestedge`` while it runs, since nothing else writes that
entry during a scan and the duals change only between substages.
``bestslack`` holds the slack of a free vertex's ``bestedge``: only the
scan sets that entry, and each dual update moves it by a known amount,
so neither the scan nor delta2 rereads the two duals and the weight.
A stage labels a single vertex outside any blossom S in place.  The
float and ``maxcardinality`` branches are gone.  networkx's internal
asserts stay; the final optimality certificate (`_verify_optimum`)
raises InvariantError, so it runs under ``python -O`` as well.

Many terms used in the comments are explained in Galil's paper.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .errors import InputError, InvariantError


def max_weight_matching(
    n: int, edges: Sequence[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """A maximum-weight matching of the graph on vertices 0..n−1 with
    the weighted edges (u, v, w), u < v, w a positive int, each pair
    once.  Returns its pairs (u, v), u < v, in ascending order.

    Neighbours are scanned in edge-list order, as networkx scans a graph
    built from the same list, which fixes the tie-break among matchings
    of equal weight.
    """
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    maxweight = 0
    for u, v, w in edges:
        if not 0 <= u < v < n:
            raise InputError(f"edge ({u}, {v}) is not a pair u < v of vertices 0..{n - 1}")
        if type(w) is not int or w <= 0:
            raise InputError(f"edge ({u}, {v}): weight {w!r} is not a positive int")
        if v in adj[u]:
            raise InputError(f"edge ({u}, {v}) is listed twice")
        adj[u][v] = adj[v][u] = 2 * w
        if w > maxweight:
            maxweight = w
    if not n:
        return []
    cert = _solve(adj, maxweight)
    _verify_optimum(adj, *cert)
    return sorted((v, w) for v, w in cert[0].items() if v < w)


def _solve(
    adj: list[dict[int, int]], maxweight: int
) -> tuple[dict[int, int], list[int], list, dict[int, int], list]:
    """The primal-dual stages; returns the matching and its dual
    certificate (mate, dualvar, blossomparent, blossomdual,
    blossomedges).  adj[v][w] is twice the weight of edge vw."""
    n = len(adj)
    gnodes = range(n)

    # If v is a matched vertex, mate[v] is its partner vertex.
    # If v is a single vertex, v does not occur as a key in mate.
    # Initially all vertices are single; updated during augmentation.
    mate: dict[int, int] = {}

    # Vertices are 0..n−1; blossoms get the ids n, n + 1, … as they are
    # created, and every list below indexed by blossom id grows by one
    # entry then.

    # If b is a top-level blossom,
    # label[b] is None if b is unlabeled (free),
    #             1 if b is an S-blossom,
    #             2 if b is a T-blossom.
    # The label of a vertex is found by looking at the label of its
    # top-level containing blossom.
    # If v is a vertex inside a T-blossom, label[v] is 2 iff v is
    # reachable from an S-vertex outside the blossom.
    # Labels are assigned during a stage and reset after each augmentation.
    label: list = [None] * n

    # If b is a labeled top-level blossom,
    # labeledge[b] = (v, w) is the edge through which b obtained its label
    # such that w is a vertex in b, or None if b's base vertex is single.
    # If w is a vertex inside a T-blossom and label[w] == 2,
    # labeledge[w] = (v, w) is an edge through which w is reachable from
    # outside the blossom.
    labeledge: list = [None] * n

    # inblossom[v] is the top-level blossom to which vertex v belongs;
    # inblossom[v] == v for a top-level vertex, a (trivial) top-level
    # blossom of its own.  Initially all vertices are.
    inblossom = list(gnodes)

    # If b is a sub-blossom, blossomparent[b] is its immediate parent
    # (sub-)blossom.  If b is a top-level blossom, blossomparent[b] is None.
    blossomparent: list = [None] * n

    # If b is a (sub-)blossom, blossombase[b] is its base VERTEX
    # (i.e. recursive sub-blossom).
    blossombase = list(gnodes)

    # If w is a free vertex (or an unreached vertex inside a T-blossom),
    # bestedge[w] = (v, w) is the least-slack edge from an S-vertex,
    # or None if there is no such edge.
    # If b is a (possibly trivial) top-level S-blossom,
    # bestedge[b] = (v, w) is the least-slack edge to a different S-blossom
    # (v inside b), or None if there is no such edge.
    # This is used for efficient computation of delta2 and delta3.
    bestedge: list = [None] * n

    # bestslack[w] = 2 * slack of bestedge[w] for a free vertex w (or an
    # unreached vertex inside a T-blossom), kept by the scan and updated
    # by each dual update.
    bestslack = [0] * n

    # For a non-trivial blossom b (None at a vertex):
    # blossomchilds[b] is the list of its sub-blossoms, starting with the
    # base and going round the blossom;
    # blossomedges[b][i] = (v, w) with v a vertex in blossomchilds[b][i]
    # and w a vertex in blossomchilds[b][(i + 1) % len(...)];
    # if b is a top-level S-blossom, mybestedges[b] lists the least-slack
    # edges to neighbouring S-blossoms, or is None if not computed yet.
    blossomchilds: list = [None] * n
    blossomedges: list = [None] * n
    mybestedges: list = [None] * n

    # dualvar[v] = 2 * u(v) where u(v) is v's variable in the dual
    # optimization problem (multiplication by two keeps all values
    # integers).  Initially, u(v) = maxweight / 2.
    dualvar = [maxweight] * n

    # If b is a non-trivial blossom, blossomdual[b] = z(b) where z(b) is
    # b's variable in the dual optimization problem.
    blossomdual: dict[int, int] = {}

    # If v * n + w is in allowedge, the edge (v, w) is known to have zero
    # slack in the optimization problem; otherwise the edge may or may
    # not have zero slack.
    allowedge: set[int] = set()
    allow = allowedge.add

    # Queue of newly discovered S-vertices.
    queue: list[int] = []

    # The vertices of blossom b, in networkx's leaf order.
    def leaves(b):
        out = []
        stack = [*blossomchilds[b]]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                out.append(t)
        return out

    # Return 2 * slack of edge (v, w) (does not work inside blossoms).
    def slack(v, w):
        return dualvar[v] + dualvar[w] - adj[v][w]

    # Assign label t to the top-level blossom containing vertex w,
    # coming through an edge from vertex v.
    def assignLabel(w, t, v):
        b = inblossom[w]
        assert label[w] is None and label[b] is None
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            # (If b is a non-trivial blossom, its base is the only vertex
            # with an external mate.)
            base = blossombase[b]
            assignLabel(mate[base], 1, base)

    # Trace back from vertices v and w to discover either a new blossom
    # or an augmenting path. Return the base vertex of the new blossom,
    # or None if an augmenting path was found.
    def scanBlossom(v, w):
        # Trace back from v and w, placing breadcrumbs as we go.
        path = []
        base = None
        while v is not None:
            # Look for a breadcrumb in v's blossom or put a new breadcrumb.
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                assert blossombase[b] not in mate
                v = None
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w is not None:
                v, w = w, v
        # Remove breadcrumbs.
        for b in path:
            label[b] = 1
        # Return base vertex, if we found one.
        return base

    # Construct a new blossom with given base, through S-vertices v and w.
    # Label the new blossom as S; set its dual variable to zero;
    # relabel its T-vertices to S and add them to the queue.
    def addBlossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        # Create blossom: the next id, with an entry in every table.
        b = len(blossombase)
        blossombase.append(base)
        blossomparent.append(None)
        blossomparent[bb] = b
        for table in (label, labeledge, bestedge, mybestedges):
            table.append(None)
        # Make list of sub-blossoms and their interconnecting edge endpoints.
        path: list[int] = []
        edgs = [(v, w)]
        blossomchilds.append(path)
        blossomedges.append(edgs)
        # Trace back from v to base.
        while bv != bb:
            # Add bv to the new blossom.
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            # Trace one step back.
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            # Add bw to the new blossom.
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            # Trace one step back.
            w = labeledge[bw][0]
            bw = inblossom[w]
        # Set label to S.
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        # Set dual variable to zero.
        blossomdual[b] = 0
        # Relabel vertices.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # This T-vertex now turns into an S-vertex because it becomes
                # part of an S-blossom; add it to the queue.
                queue.append(v)
            inblossom[v] = b
        # Compute mybestedges[b].
        bestedgeto = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    # Walk this subblossom's least-slack edges.
                    nblist = mybestedges[bv]
                    # The sub-blossom won't need this data again.
                    mybestedges[bv] = None
                else:
                    # This subblossom does not have a list of least-slack
                    # edges; get the information from the vertices.
                    nblist = [(v, w) for v in leaves(bv) for w in adj[v]]
            else:
                nblist = [(bv, w) for w in adj[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and ((bj not in bestedgeto) or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            # Forget about least-slack edge of the subblossom.
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        # Select bestedge[b].
        mybestedge = None
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    # Expand the given top-level blossom.
    def expandBlossom(b, endstage):
        # A recursive function run on a trampoline: each recursive call is
        # yielded as its arguments, which keeps the actual call stack flat.

        def _recurse(b, endstage):
            childs = blossomchilds[b]
            edges = blossomedges[b]
            # Convert sub-blossoms into top-level blossoms.
            for s in childs:
                blossomparent[s] = None
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        # Recursively expand this sub-blossom.
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # If we expand a T-blossom during a stage, its sub-blossoms must be
            # relabeled.
            if (not endstage) and label[b] == 2:
                # Start at the sub-blossom through which the expanding
                # blossom obtained its label, and relabel sub-blossoms until
                # we reach the base.
                # Figure out through which sub-blossom the expanding blossom
                # obtained its label initially.
                entrychild = inblossom[labeledge[b][1]]
                # Decide in which direction we will go round the blossom.
                j = childs.index(entrychild)
                if j & 1:
                    # Start index is odd; go forward and wrap.
                    j -= len(childs)
                    jstep = 1
                else:
                    # Start index is even; go backward.
                    jstep = -1
                # Move along the blossom until we get to the base.
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    if jstep == 1:
                        p, q = edges[j]
                    else:
                        q, p = edges[j - 1]
                    label[w] = None
                    label[q] = None
                    assignLabel(w, 2, v)
                    # Step to the next S-sub-blossom and note its forward edge.
                    allow(p * n + q)
                    allow(q * n + p)
                    j += jstep
                    if jstep == 1:
                        v, w = edges[j]
                    else:
                        w, v = edges[j - 1]
                    # Step to the next T-sub-blossom.
                    allow(v * n + w)
                    allow(w * n + v)
                    j += jstep
                # Relabel the base T-sub-blossom WITHOUT stepping through to
                # its mate (so don't call assignLabel).
                bw = childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue along the blossom until we get back to entrychild.
                j += jstep
                while childs[j] != entrychild:
                    # Examine the vertices of the sub-blossom to see whether
                    # it is reachable from a neighboring S-vertex outside the
                    # expanding blossom.
                    bv = childs[j]
                    if label[bv] == 1:
                        # This sub-blossom just got label S through one of its
                        # neighbors; leave it be.
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    # If the sub-blossom contains a reachable vertex, assign
                    # label T to the sub-blossom.
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assignLabel(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely; its id is never reused.
            label[b] = labeledge[b] = bestedge[b] = None
            del blossomdual[b]

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path through blossom b
    # between vertex v and the base vertex. Keep blossom bookkeeping
    # consistent.
    def augmentBlossom(b, v):
        # A recursive function on the same trampoline as expandBlossom.

        def _recurse(b, v):
            childs = blossomchilds[b]
            edges = blossomedges[b]
            # Bubble up through the blossom tree from vertex v to an immediate
            # sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            # Recursively deal with the first sub-blossom.
            if t >= n:
                yield (t, v)
            # Decide in which direction we will go round the blossom.
            i = j = childs.index(t)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(childs)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = childs[j]
                if jstep == 1:
                    w, x = edges[j]
                else:
                    x, w = edges[j - 1]
                if t >= n:
                    yield (t, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = childs[j]
                if t >= n:
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the list of sub-blossoms to put the new base at the front.
            blossomchilds[b] = childs = childs[i:] + childs[:i]
            blossomedges[b] = edges[i:] + edges[:i]
            blossombase[b] = blossombase[childs[0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path between two
    # single vertices. The augmenting path runs through S-vertices v and w.
    def augmentMatching(v, w):
        for s, j in ((v, w), (w, v)):
            # Match vertex s to vertex j. Then trace back from s
            # until we find a single vertex, swapping matched and unmatched
            # edges as we go.
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                # Augment through the S-blossom from s to base.
                if bs >= n:
                    augmentBlossom(bs, s)
                # Update mate[s]
                mate[s] = j
                # Trace one step back.
                if labeledge[bs] is None:
                    # Reached single vertex; stop.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                # Trace one more step back.
                s, j = labeledge[bt]
                # Augment through the T-blossom from j to base.
                assert blossombase[bt] == t
                if bt >= n:
                    augmentBlossom(bt, j)
                # Update mate[j]
                mate[j] = s

    # Main loop: continue until no further improvement is possible.
    while 1:
        # Each iteration of this loop is a "stage".
        # A stage finds an augmenting path and uses that to improve
        # the matching.

        # Remove labels from top-level blossoms/vertices.
        label[:] = labeledge[:] = [None] * len(label)

        # Forget all about least-slack edges.
        bestedge[:] = [None] * len(bestedge)
        for b in blossomdual:
            mybestedges[b] = None

        # Loss of labeling means that we can not be sure that currently
        # allowable edges remain allowable throughout this stage.
        allowedge.clear()

        # Make queue empty.
        queue[:] = []

        # Label single blossoms/vertices with S and put them in the queue
        # (a vertex outside any blossom directly: the reset cleared it).
        for v in gnodes:
            if v not in mate:
                b = inblossom[v]
                if b == v:
                    label[v] = 1
                    queue.append(v)
                elif label[b] is None:
                    assignLabel(v, 1, None)

        # Loop until we succeed in augmenting the matching.
        augmented = 0
        while 1:
            # Each iteration of this loop is a "substage".
            # A substage tries to find an augmenting path;
            # if found, the path is used to improve the matching and
            # the stage ends. If there is no augmenting path, the
            # primal-dual method is used to pump some slack out of
            # the dual variables.

            # Continue labeling until all vertices which are reachable
            # through an alternating path have got a label.
            while queue and not augmented:
                # Take an S vertex from the queue.
                v = queue.pop()
                assert label[inblossom[v]] == 1
                # Vertex duals change only between substages, and v's
                # blossom only when addBlossom puts v in a new one.
                dv = dualvar[v]
                bv = inblossom[v]
                vn = v * n
                # The slack of bestedge[bv], once read; only this scan
                # writes bestedge[bv] until addBlossom changes bv.
                bvslack = None

                # Scan its neighbors:
                for w, w2 in adj[v].items():
                    # w is a neighbor to v
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    lbw = label[bw]
                    if vn + w in allowedge:
                        allowed = True
                    else:
                        kslack = dv + dualvar[w] - w2
                        # zero slack => the edge is allowable
                        allowed = kslack <= 0
                        if allowed:
                            allow(vn + w)
                            allow(w * n + v)
                    if allowed:
                        if lbw is None:
                            # (C1) w is a free vertex;
                            # label w with T and label its mate with S (R12).
                            assignLabel(w, 2, v)
                        elif lbw == 1:
                            # (C2) w is an S-vertex (not in the same blossom);
                            # follow back-links to discover either an
                            # augmenting path or a new blossom.
                            base = scanBlossom(v, w)
                            if base is not None:
                                # Found a new blossom; add it to the blossom
                                # bookkeeping and turn it into an S-blossom.
                                addBlossom(base, v, w)
                                bv = inblossom[v]
                                bvslack = None
                            else:
                                # Found an augmenting path; augment the
                                # matching and end this stage.
                                augmentMatching(v, w)
                                augmented = 1
                                break
                        elif label[w] is None:
                            # w is inside a T-blossom, but w itself has not
                            # yet been reached from outside the blossom;
                            # mark it as reached (we need this to relabel
                            # during T-blossom expansion).
                            assert lbw == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif lbw == 1:
                        # keep track of the least-slack non-allowable edge to
                        # a different S-blossom.
                        if bvslack is None:
                            best = bestedge[bv]
                            if best is not None:
                                x, y = best
                                bvslack = dualvar[x] + dualvar[y] - adj[x][y]
                        if bvslack is None or kslack < bvslack:
                            bestedge[bv] = (v, w)
                            bvslack = kslack
                    elif label[w] is None:
                        # w is a free vertex (or an unreached vertex inside
                        # a T-blossom) but we can not reach it yet;
                        # keep track of the least-slack edge that reaches w.
                        if bestedge[w] is None or kslack < bestslack[w]:
                            bestedge[w] = (v, w)
                            bestslack[w] = kslack

            if augmented:
                break

            # There is no augmenting path under these constraints;
            # compute delta and reduce slack in the optimization problem.
            # (Note that our vertex dual variables, edge slacks and delta's
            # are pre-multiplied by two.)
            deltaedge = deltablossom = None

            # Compute delta1: the minimum value of any vertex dual.
            deltatype = 1
            delta = min(dualvar)

            # Compute delta2: the minimum slack on any edge between
            # an S-vertex and a free vertex.
            for v in gnodes:
                if bestedge[v] is not None and label[inblossom[v]] is None:
                    d = bestslack[v]
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # Compute delta3: half the minimum slack on any edge between
            # a pair of S-blossoms.
            for b in chain(gnodes, blossomdual):
                best = bestedge[b]
                if best is not None and blossomparent[b] is None and label[b] == 1:
                    kslack = slack(*best)
                    assert (kslack % 2) == 0
                    d = kslack // 2
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = best

            # Compute delta4: minimum z variable of any T-blossom.
            for b, z in blossomdual.items():
                if blossomparent[b] is None and label[b] == 2 and z < delta:
                    delta = z
                    deltatype = 4
                    deltablossom = b

            # Update dual variables according to delta.
            for v in gnodes:
                t = label[inblossom[v]]
                if t == 1:
                    # S-vertex: 2*u = 2*u - 2*delta
                    dualvar[v] -= delta
                elif t == 2:
                    # T-vertex: 2*u = 2*u + 2*delta
                    dualvar[v] += delta
                else:
                    # free vertex: its bestedge's S end drops by delta
                    bestslack[v] -= delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        # top-level S-blossom: z = z + 2*delta
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        # top-level T-blossom: z = z - 2*delta
                        blossomdual[b] -= delta

            # Take action at the point where minimum delta occurred.
            if deltatype == 1:
                # No further improvement possible; optimum reached.
                break
            elif deltatype == 2:
                # Use the least-slack edge to continue the search.
                (v, w) = deltaedge
                assert label[inblossom[v]] == 1
                allow(v * n + w)
                allow(w * n + v)
                queue.append(v)
            elif deltatype == 3:
                # Use the least-slack edge to continue the search.
                (v, w) = deltaedge
                allow(v * n + w)
                allow(w * n + v)
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                # Expand the least-z blossom.
                expandBlossom(deltablossom, False)

            # End of a this substage.

        # Paranoia check that the matching is symmetric.
        for v in mate:
            assert mate[mate[v]] == v

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label[b] == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    return mate, dualvar, blossomparent, blossomdual, blossomedges


def _verify_optimum(
    adj: list[dict[int, int]],
    mate: dict[int, int],
    dualvar: list[int],
    blossomparent: list,
    blossomdual: dict[int, int],
    blossomedges: list,
) -> None:
    """Check the dual certificate of an optimum matching; InvariantError
    on the first condition it breaks."""
    # 0. all dual variables are non-negative
    if min(dualvar, default=0) < 0:
        raise _not_optimal("a negative vertex dual")
    if any(z < 0 for z in blossomdual.values()):
        raise _not_optimal("a negative blossom dual")
    # 0. all edges have non-negative slack and
    # 1. all matched edges have zero slack;
    for i, nbrs in enumerate(adj):
        for j, w2 in nbrs.items():
            if j < i:
                continue
            s = dualvar[i] + dualvar[j] - w2
            # add the duals of the blossoms holding both ends; there are
            # none unless both ends lie inside a blossom
            if blossomparent[i] is not None and blossomparent[j] is not None:
                iblossoms = [i]
                jblossoms = [j]
                while blossomparent[iblossoms[-1]] is not None:
                    iblossoms.append(blossomparent[iblossoms[-1]])
                while blossomparent[jblossoms[-1]] is not None:
                    jblossoms.append(blossomparent[jblossoms[-1]])
                iblossoms.reverse()
                jblossoms.reverse()
                for bi, bj in zip(iblossoms, jblossoms):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
            if s < 0:
                raise _not_optimal(f"edge ({i}, {j}) has negative slack")
            if mate.get(i) == j or mate.get(j) == i:
                if mate.get(i) != j or mate.get(j) != i:
                    raise _not_optimal(f"edge ({i}, {j}) is matched one way")
                if s != 0:
                    raise _not_optimal(f"matched edge ({i}, {j}) has slack")
    # 2. all single vertices have zero dual value;
    for v, y in enumerate(dualvar):
        if v not in mate and y != 0:
            raise _not_optimal(f"single vertex {v} has a positive dual")
    # 3. all blossoms with positive dual value are full.
    for b, z in blossomdual.items():
        if z > 0:
            edges = blossomedges[b]
            if len(edges) % 2 != 1:
                raise _not_optimal("a blossom with an even cycle")
            for i, j in edges[1::2]:
                if mate.get(i) != j or mate.get(j) != i:
                    raise _not_optimal("a blossom with positive dual is not full")


def _not_optimal(what: str) -> InvariantError:
    return InvariantError(f"blossom matching is not optimal: {what}")
