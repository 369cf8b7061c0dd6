"""Myrinet-style crossbar / Clos topology.

Myrinet 2000 interconnects hosts through 16-port wormhole crossbar
switches.  Small clusters (the paper's 8- and 16-node systems) hang off a
single crossbar; larger systems cascade crossbars into a two-level Clos
(leaf switches own hosts, spine switches interconnect leaves), and the
largest into a three-level Clos: pods of two-level sub-Clos networks
joined by a top stage — the layout of the era's 256+ host Myrinet
machines, and what lets fig8's measured series reach 512 nodes.

Routing is deterministic source routing (as in real Myrinet): the
intermediate switches for a (src, dst) pair follow from one static
per-source rule (:meth:`ClosTopology.up_switch`), so a given pair
always takes the same path.
"""

from __future__ import annotations

from repro.topology.base import Route, Topology


class ClosTopology(Topology):
    """One- to four-level folded Clos of ``radix``-port crossbars.

    Parameters
    ----------
    n_nodes:
        Number of host NICs.
    radix:
        Ports per crossbar switch (16 for Myrinet 2000's Xbar16).

    Every switch splits its ports half down / half up, the classic
    folded-Clos split with ``half = radix // 2``:

    - one level: up to ``radix`` hosts on a single crossbar;
    - two levels: leaves own hosts, spines join leaves — up to
      ``half**2`` hosts;
    - three levels: pods of ``half**2`` hosts (a two-level sub-Clos of
      leaves and mid switches) joined by a top stage of ``half**2``
      crossbars, top ``t`` reaching mid ``t // half`` in every pod —
      up to ``half**3`` hosts (512 for Myrinet's radix 16);
    - four levels: superpods of ``half**3`` hosts (each a three-level
      sub-Clos with a per-superpod top stage) joined by an apex stage
      of ``half**3`` crossbars — up to ``half**4`` hosts (4096 for
      radix 16), one recursion past the era's largest machines, for
      the simulator's extrapolation sweeps.
    """

    def __init__(self, n_nodes: int, radix: int = 16):
        super().__init__(n_nodes)
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        self.radix = radix
        half = radix // 2
        self._half = half
        self.n_superpods = 1
        if n_nodes <= radix:
            self.levels = 1
            self.n_leaves = 1
            self.n_spines = 0
            self.n_pods = 1
        elif n_nodes <= half * half:
            self.levels = 2
            self.n_leaves = -(-n_nodes // half)  # ceil division
            self.n_spines = half
            self.n_pods = 1
        elif n_nodes <= half * half * half:
            self.levels = 3
            self.n_leaves = -(-n_nodes // half)
            self.n_spines = 0
            self.n_pods = -(-n_nodes // (half * half))
            self.n_tops = half * half
        elif n_nodes <= half * half * half * half:
            self.levels = 4
            self.n_leaves = -(-n_nodes // half)
            self.n_spines = 0
            self.n_pods = -(-n_nodes // (half * half))
            self.n_tops = half * half  # per superpod
            self.n_superpods = -(-n_nodes // (half * half * half))
            self.n_apex = half * half * half
        else:
            raise ValueError(
                f"{n_nodes} nodes exceeds four-level Clos capacity "
                f"{half ** 4} for radix {radix}"
            )
        self._hosts_per_leaf = n_nodes if self.levels == 1 else half
        self._hosts_per_pod = half * half
        self._hosts_per_superpod = half * half * half
        # Hosts under one leaf, pod and superpod: a route turns at the
        # lowest stage whose group holds both ends (route_level).
        self.group_sizes = (
            self._hosts_per_leaf, self._hosts_per_pod, self._hosts_per_superpod,
        )

    # ------------------------------------------------------------------
    def leaf_of(self, port: int) -> int:
        self._check_port(port)
        return port // self._hosts_per_leaf

    def pod_of(self, port: int) -> int:
        self._check_port(port)
        return port // self._hosts_per_pod

    def superpod_of(self, port: int) -> int:
        self._check_port(port)
        return port // self._hosts_per_superpod

    def switches(self) -> list[str]:
        if self.levels == 1:
            return ["xbar0"]
        leaves = [f"leaf{i}" for i in range(self.n_leaves)]
        if self.levels == 2:
            spines = [f"spine{i}" for i in range(self.n_spines)]
            return leaves + spines
        mids = [
            f"mid{p}_{m}"
            for p in range(self.n_pods)
            for m in range(self._half)
        ]
        if self.levels == 3:
            tops = [f"top{t}" for t in range(self.n_tops)]
            return leaves + mids + tops
        tops = [
            f"top{sp}_{t}"
            for sp in range(self.n_superpods)
            for t in range(self.n_tops)
        ]
        apexes = [f"apex{a}" for a in range(self.n_apex)]
        return leaves + mids + tops + apexes

    def route_level(self, src: int, dst: int) -> int:
        """Switch stage a route turns at: 0 for a loopback, 1 at the
        shared leaf (or the single crossbar), 2 at a spine or pod mid,
        3 at a top, 4 at an apex.  A level-``l`` route crosses
        ``2*l - 1`` switches on ``2*l`` links."""
        if src == dst:
            return 0
        if src // self._hosts_per_leaf == dst // self._hosts_per_leaf:
            return 1
        if src // self._hosts_per_pod == dst // self._hosts_per_pod:
            return 2
        if src // self._hosts_per_superpod == dst // self._hosts_per_superpod:
            return 3
        return 4

    def up_switch(self, src: int, level: int) -> int:
        """Column of the switch a level-``level`` route from ``src``
        turns at (``level >= 2``): its index among the spines, the
        pod's mids, the superpod's tops or the apexes.

        This is the whole routing rule.  Static deterministic selection:
        source-routed networks pick the path at the sender, and
        Myrinet's mapper computes the dispersive route set.  Each source
        owns one switch per level (``src % half**(level-1)`` is unique
        within the group the route climbs out of), which keeps the flows
        of a shifted-permutation collective (dst = src + 2^m) on
        distinct switches.  The switches below the turn follow from the
        wiring: column ``c`` reaches column ``c // half`` one stage down
        in every group, so the climb and the descent cross the same
        columns on both sides.  Below a level-3 or level-4 turn that
        wiring gives a leaf's consecutive hosts one shared mid column,
        so their inter-pod traffic shares one uplink.
        """
        return src % self._half ** (level - 1)

    def _switch(self, level: int, port: int, column: int) -> str:
        """The level-``level`` switch with ``column`` in ``port``'s group."""
        if level == 1:
            return "xbar0" if self.levels == 1 else f"leaf{port // self._hosts_per_leaf}"
        if level == 2:
            if self.levels == 2:
                return f"spine{column}"
            return f"mid{port // self._hosts_per_pod}_{column}"
        if level == 3:
            if self.levels == 3:
                return f"top{column}"
            return f"top{port // self._hosts_per_superpod}_{column}"
        return f"apex{column}"

    def route(self, src: int, dst: int) -> Route:
        self._check_port(src)
        self._check_port(dst)
        level = self.route_level(src, dst)
        if level == 0:
            return Route(src, dst, ())
        column = self.up_switch(src, level) if level > 1 else 0
        turn = self._switch(level, src, column)
        up, down = [], []
        for stage in range(level - 1, 0, -1):
            column //= self._half
            up.append(self._switch(stage, src, column))
            down.append(self._switch(stage, dst, column))
        return Route(src, dst, (*reversed(up), turn, *down))
