package repro.exp

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

/** Every committed file under bench/results/ starts with the title and
  * header its `Tables` renderer gives, so a renderer changed without
  * regenerating its file, or a file written by another formatter, fails.
  */
class TablesSpec extends AnyFunSuite {

  test("each bench/results file has one renderer, and its title and header match it") {
    val tables = Seq(Tables.queries, Tables.eva, Tables.viva, Tables.devkit, Tables.otif, Tables.sky,
                     Tables.ablationRuntime, Tables.ablationAccuracy, Tables.skipDistance)
    val dir = Paths.get(sys.props("repro.results.dir"))
    assert(tables.map(_.file).sorted === dir.toFile.list().filter(_.endsWith(".md")).toSeq.sorted)
    tables.foreach { t =>
      val committed = new String(Files.readAllBytes(dir.resolve(t.file)), StandardCharsets.UTF_8)
      assert(committed.startsWith(t.render(Nil)), s"${t.file} differs from Tables' title or header")
    }
  }
}
